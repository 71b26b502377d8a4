package server

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"placeless/internal/sig"
)

// FuzzParsePropertySpec checks the spec parser never panics and that
// every accepted spec yields a usable property whose name is non-empty.
func FuzzParsePropertySpec(f *testing.F) {
	for _, seed := range []string{
		"spell-correct", "spell-correct:5", "translate-fr", "uppercase:2",
		"summarize:3:10", "watermark:eyal", "qos:250:50", "rot13",
		"", "unknown", "summarize", "qos:x:y", ":::", "summarize:-1",
		"watermark:", "qos:250:0.5", strings.Repeat("a:", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePropertySpec(spec)
		if err != nil {
			return
		}
		if p == nil || p.Name() == "" {
			t.Fatalf("accepted spec %q produced unusable property", spec)
		}
		// Accepted properties must have a well-formed event set.
		for _, k := range p.Events() {
			if k.String() == "" {
				t.Fatalf("spec %q: bad event kind", spec)
			}
		}
	})
}

// FuzzProtocolRoundTrip checks the string list an OpFind answer rides
// in, doc, value and level for each match: static property values are
// arbitrary user strings, so tabs, newlines, empty values, and
// multi-byte UTF-8 must survive it (a format that packed matches into a
// tab-separated string corrupted exactly these inputs), and only the
// call ID and the list cross with it. The same inputs make a read whose
// body is value then doc, naming value as its head when both are set:
// the body and the head's length and signature cross unchanged.
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add("doc", "value", "universal", uint8(1))
	f.Add("d\tmid", "tab\tseparated", "personal", uint8(2))
	f.Add("d\nnl", "line\none\nline two", "universal", uint8(3))
	f.Add("", "", "", uint8(0))
	f.Add("δοc", "значение → 値", "universal", uint8(5))
	f.Add("d", "trailing\t\n", "personal", uint8(7))
	// Split reads: a watermark banner on a long universal output, and a
	// one-byte tail.
	f.Add("\n-- retrieved for amy --\n", strings.Repeat("the universal output. ", 400), "", uint8(0))
	f.Add("!", "h", "", uint8(4))
	f.Fuzz(func(t *testing.T, doc, value, level string, n uint8) {
		read := Response{ID: 41, Body: []byte(value + doc), Cacheability: 1, Signature: sig.Of([]byte(value + doc))}
		if value != "" && doc != "" {
			read.HeadLen, read.HeadSig = len(value), sig.Of([]byte(value))
		}
		rf, err := encodeResponseFrame(OpRead, &read)
		if err != nil {
			t.Fatalf("encode read: %v", err)
		}
		rgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, rf))))
		if err != nil {
			t.Fatalf("decode read: %v", err)
		}
		if !reflect.DeepEqual(*rgot, read) {
			t.Fatalf("read corrupted: got %+v want %+v", *rgot, read)
		}

		var list []string
		for i := 0; i < int(n)%5; i++ {
			list = append(list, doc+strings.Repeat("x", i), value, level)
		}
		in := Response{
			ID:         42,
			Body:       []byte(value),
			NotifyDoc:  doc,
			NotifyUser: value,
			List:       list,
		}

		ef, err := encodeResponseFrame(OpFind, &in)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, ef))))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if want := (Response{ID: 42, List: list}); !reflect.DeepEqual(*got, want) {
			t.Fatalf("find answer corrupted: got %+v want %+v", *got, want)
		}
	})
}

// FuzzProtocolV2RoundTrip drives the hand-written codecs with
// arbitrary field values: every request, whatever its op, must decode
// back to the same fields from the one request layout, and so must the
// read response, the push and the error frame.
func FuzzProtocolV2RoundTrip(f *testing.F) {
	bodySig := sig.Of([]byte("body"))
	f.Add(uint64(1), uint8(0), "doc", "user", "value", []byte("body"), uint8(1), int64(5), int64(9), bodySig[:])
	f.Add(uint64(42), uint8(1), "d\tmid", "u\nnl", "значение", []byte{0x02, 0x00, 0xff}, uint8(0), int64(-1), int64(0), []byte{})
	f.Add(uint64(7), uint8(7), "", "", "", []byte{}, uint8(255), int64(1<<40), int64(-7), bytes.Repeat([]byte{0xff}, sig.Size))
	f.Add(uint64(1<<63), uint8(12), "δοc", "ユーザー", "v", bytes.Repeat([]byte("x"), 5000), uint8(3), int64(0), int64(1), []byte("short"))
	// A signature that looks like frame structure: the version byte, a
	// header's worth of zeros, then a plausible trailer.
	f.Add(uint64(3), uint8(0), "d", "u", "", []byte("b"), uint8(1), int64(0), int64(0),
		[]byte{wireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, id uint64, op8 uint8, doc, user, value string, body []byte, cach uint8, cost, expiry int64, sgBytes []byte) {
		if id == 0 {
			id = 1 // ID 0 is reserved for pushes; requests reject it
		}
		op := Op(int(op8) % (int(OpFind) + 1))
		flagged := cost&1 == 1 // the subscribe bit, in both directions
		req := &Request{ID: id, Op: op, Doc: doc, User: user,
			Personal: op8%2 == 0, Property: value + "p", Value: value, Body: body,
			Subscribe: flagged && op == OpRead}
		got, err := readRequestFrame(bufio.NewReader(bytes.NewReader(requestBytes(t, req))))
		if err != nil {
			t.Fatalf("decode request %v: %v", op, err)
		}
		if len(req.Body) == 0 {
			req.Body = nil // an empty tail decodes as no body
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request corrupted: got %+v want %+v", got, req)
		}

		// Read response: raw metadata + body. Cacheability is a one-byte
		// enum on the wire, hence the uint8 input.
		var sg sig.Signature
		copy(sg[:], sgBytes)
		resp := &Response{ID: id, Body: body, Cacheability: int(cach),
			CostNanos: cost, ExpiryUnixNanos: expiry, Signature: sg, SubscribeFailed: flagged}
		rf, err := encodeResponseFrame(OpRead, resp)
		if err != nil {
			t.Fatalf("encode read response: %v", err)
		}
		rgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, rf))))
		if err != nil {
			t.Fatalf("decode read response: %v", err)
		}
		if rgot.ID != id || !bytes.Equal(rgot.Body, body) || rgot.Cacheability != int(cach) ||
			rgot.CostNanos != cost || rgot.ExpiryUnixNanos != expiry || rgot.Signature != sg ||
			rgot.SubscribeFailed != flagged {
			t.Fatalf("read response corrupted: got %+v want %+v", rgot, resp)
		}

		// Invalidation push: doc/user strings with arbitrary content.
		pf, err := encodeResponseFrame(opInvalidate, &Response{NotifyDoc: doc, NotifyUser: user})
		if err != nil {
			t.Fatalf("encode push: %v", err)
		}
		pgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, pf))))
		if err != nil {
			t.Fatalf("decode push: %v", err)
		}
		if pgot.ID != 0 || pgot.NotifyDoc != doc || pgot.NotifyUser != user {
			t.Fatalf("push corrupted: got %+v", pgot)
		}

		// Error responses carry the string as payload; empty means
		// success, so skip that case.
		if value != "" {
			ef2, err := encodeResponseFrame(op, &Response{ID: id, Err: value})
			if err != nil {
				t.Fatalf("encode error response: %v", err)
			}
			egot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, ef2))))
			if err != nil {
				t.Fatalf("decode error response: %v", err)
			}
			if egot.ID != id || egot.Err != value {
				t.Fatalf("error response corrupted: got %+v", egot)
			}
		}
	})
}

// FuzzV2FrameDecode feeds arbitrary byte streams to the frame
// decoders: they must reject garbage with an error — never panic, hang,
// or allocate per an attacker-controlled length prefix.
func FuzzV2FrameDecode(f *testing.F) {
	vb := requestBytes(f, &Request{ID: 3, Op: OpRead, Doc: "d", User: "u"})
	f.Add(vb)
	f.Add(vb[:len(vb)-1])
	f.Add(append(append([]byte{}, vb...), 0xde, 0xad))
	f.Add([]byte{wireVersion, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{})
	// The version-5 shapes: a read carrying its subscription, a request
	// using every field of the layout, and a structured answer's list;
	// then version 6's read that names its head, and that read with a
	// head as long as its body, a length without a signature and a
	// signature without a length.
	f.Add(requestBytes(f, &Request{ID: 4, Op: OpRead, Doc: "d", User: "u", Subscribe: true}))
	f.Add(requestBytes(f, &Request{ID: 5, Op: OpAttachStatic, Doc: "d", User: "u",
		Personal: true, Property: "k", Value: "v", Body: []byte("tail")}))
	listed, err := encodeResponseFrame(OpFind, &Response{ID: 6, List: []string{"d", "tab\tvalue", "universal"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frameBytes(f, listed))
	for _, head := range []struct {
		n int
		s sig.Signature
	}{{4, sig.Of([]byte("head"))}, {9, sig.Of([]byte("head+tail"))}, {4, sig.Zero}, {0, sig.Of([]byte("head"))}} {
		split, err := encodeResponseFrame(OpRead, &Response{ID: 7, Body: []byte("head+tail"), Cacheability: 1,
			Signature: sig.Of([]byte("head+tail")), HeadLen: head.n, HeadSig: head.s})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frameBytes(f, split))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readRequestFrame(bufio.NewReader(bytes.NewReader(data)))
		_, _ = readResponseFrame(bufio.NewReader(bytes.NewReader(data)))
	})
}
