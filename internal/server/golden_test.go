package server

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"placeless/internal/sig"
)

var updateGolden = flag.Bool("update", false, "write the wire golden file of a new wire version")

// wireGoldenLines renders one request and one response per op, plus the
// shapes no op owns (the flagged read both ways, the read that names
// its body's head, the error frame, the push), as "name hex" lines.
// Each of the four structured answers carries a list of its own shape.
func wireGoldenLines(t *testing.T) string {
	t.Helper()
	const id = 0x0102030405060708
	var out strings.Builder
	line := func(name string, b []byte) { fmt.Fprintf(&out, "%s %s\n", name, hex.EncodeToString(b)) }

	fmt.Fprintf(&out, "hello %s\nack %s\n", hex.EncodeToString(helloMagic[:]), hex.EncodeToString(helloAck[:]))
	for op := OpRead; op <= OpFind; op++ {
		line("request "+op.String(), requestBytes(t, &Request{ID: id, Op: op,
			Doc: "doc", User: "user", Personal: true, Property: "prop", Value: "value", Body: []byte("body")}))
	}
	line("request read+subscribe", requestBytes(t, &Request{ID: id, Op: OpRead,
		Doc: "doc", User: "user", Subscribe: true}))

	// A literal signature, not sig.Of(body): the golden pins where the
	// sixteen bytes go, not which hash produced them.
	signature := sig.Signature{0x84, 0x1a, 0x2d, 0x68, 0x9a, 0xd8, 0x6b, 0xd1, 0x61, 0x14, 0x47, 0x45, 0x3c, 0x22, 0xc6, 0xfc}
	read := &Response{ID: id, Body: []byte("body"), Cacheability: 1, CostNanos: 1 << 20, ExpiryUnixNanos: 1 << 40, Signature: signature}
	lists := map[Op][]string{
		OpStats:       {"requests", "7", "notifications", "0", "connections", "1"},
		OpListActives: {"spell-correct", "uppercase"},
		OpDescribe:    {"doc: 1 reference\n\tuniversal: spell-correct"},
		OpFind:        {"doc", "tab\tvalue", "universal", "doc2", "", "personal"},
	}
	for op := OpRead; op <= OpFind; op++ {
		r := *read
		r.List = lists[op]
		f, err := encodeResponseFrame(op, &r)
		if err != nil {
			t.Fatal(err)
		}
		line("response "+op.String(), frameBytes(t, f))
	}
	flagged := *read
	flagged.SubscribeFailed = true
	split := *read
	split.Body, split.HeadLen = []byte("head, then tail"), len("head")
	split.HeadSig = sig.Signature{0x0f, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00}
	for _, shape := range []struct {
		name string
		op   Op
		r    *Response
	}{
		{"response read+unsubscribed", OpRead, &flagged},
		{"response read+head", OpRead, &split},
		{"response error", OpAttach, &Response{ID: id, Err: "no such document"}},
		{"push", opInvalidate, &Response{NotifyDoc: "doc", NotifyUser: "user"}},
	} {
		f, err := encodeResponseFrame(shape.op, shape.r)
		if err != nil {
			t.Fatal(err)
		}
		line(shape.name, frameBytes(t, f))
	}
	return out.String()
}

// TestWireGolden pins the bytes of the wire format to the version that
// names them: peers of one version must agree on every layout, and the
// payload checksum cannot tell a moved field from a valid frame. The
// file is named after wireVersion, so a new version starts a new file
// (go test ./internal/server -run TestWireGolden -update, then delete
// the old one); under an unchanged version the bytes may not move, and
// -update will not overwrite them.
func TestWireGolden(t *testing.T) {
	path := fmt.Sprintf("testdata/wire_v%d.golden", wireVersion)
	got := []byte(wireGoldenLines(t))
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) && *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (a new wire version needs its golden file: rerun with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range strings.Split(string(got), "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			w := "(nothing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			break
		}
	}
	t.Fatalf("layout changed: bump wireVersion and regenerate (%s holds the bytes version %d peers already speak)", path, wireVersion)
}
