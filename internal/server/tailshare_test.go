package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// tailShareRig is a memoizing cached server with one document under
// [spell-correct, translate-fr] and, for each user, a reference with
// the personal watermark: the shape whose views are the universal
// output plus a banner.
type tailShareRig struct {
	srv   *Server
	cache *core.Cache
	c     *Client
	users []string
}

func newTailShareRig(t *testing.T, users int) *tailShareRig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	r := &tailShareRig{cache: core.New(space, core.Options{Name: "tail-test", Capacity: 1 << 20, Memoize: true})}
	t.Cleanup(r.cache.Close)
	r.srv = NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), r.cache)
	r.c = serveAndDial(t, r.srv, WithCallTimeout(10*time.Second)) // a frame cut short fails, not hangs
	for i := 0; i < users; i++ {
		r.users = append(r.users, fmt.Sprintf("user%02d", i))
	}
	body := bytes.Repeat([]byte("teh document recieve the hello world "), 64)
	if err := r.c.CreateDocument("d", r.users[0], body); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"spell-correct", "translate-fr"} {
		if err := r.c.Attach("d", "", false, spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range r.users {
		if i > 0 {
			if err := r.c.AddReference("d", u); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.c.Attach("d", u, true, "watermark:"+u); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func banner(user string) string { return "\n-- retrieved for " + user + " --\n" }

// TestPersonalViewsShareTheirCut: N users read one document through
// the server, a miss and then a hit each. Every read returns the
// universal output with the reader's banner; the origin keeps the
// universal cuts once and, per user, only the banner, while capacity
// still charges every view its full length.
func TestPersonalViewsShareTheirCut(t *testing.T) {
	const n = 8
	r := newTailShareRig(t, n)
	var universal []byte
	var first core.Stats
	banners := int64(0)
	for i, u := range r.users {
		for _, pass := range []string{"miss", "hit"} {
			data, _, err := r.c.Read("d", u)
			if err != nil {
				t.Fatal(err)
			}
			head, ok := bytes.CutSuffix(data, []byte(banner(u)))
			if !ok || !bytes.HasPrefix(head, []byte("le document receive le bonjour monde ")) {
				t.Fatalf("%s's %s: %q is not the corrected, translated document with %s's banner", u, pass, data, u)
			}
			if universal == nil {
				universal = head
			} else if !bytes.Equal(head, universal) {
				t.Fatalf("%s's %s: the view does not begin with the universal output", u, pass)
			}
		}
		banners += int64(len(banner(u)))
		if i == 0 {
			first = r.cache.Stats()
		}
	}
	st := r.cache.Stats()
	if st.Hits != n || st.Misses != n {
		t.Fatalf("%d hits, %d misses; want %d of each", st.Hits, st.Misses, n)
	}
	// After the first user: the spell-correct and translate-fr cuts, and
	// the first view on the second of them.
	cuts := first.BytesResident - int64(len(banner(r.users[0])))
	if want := cuts + banners; st.BytesResident != want {
		t.Fatalf("BytesResident = %d, want the cuts' %d + %d banner bytes", st.BytesResident, cuts, banners)
	}
	if want := st.BytesResident + n*int64(len(universal)); st.BytesStored != want {
		t.Fatalf("BytesStored = %d, want %d: every view charged its full length", st.BytesStored, want)
	}
}

// TestTailSharingReadIsOneWholeFrame serves a tail-shared view over a
// packet socket, where each write(2) or writev(2) arrives as one
// record. The miss and the fast hit each leave in one writev, each
// names the view's head, and each frame is byte for byte, trailer
// included, the frame of the same answer with the body whole.
func TestTailSharingReadIsOneWholeFrame(t *testing.T) {
	r := newTailShareRig(t, 2)
	if _, _, err := r.c.Read("d", r.users[0]); err != nil { // installs the cuts
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "placeless")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unixpacket", filepath.Join(dir, "s"))
	if err != nil {
		t.Skipf("no unixpacket sockets: %v", err)
	}
	go func() { _ = r.srv.Serve(ln) }()
	conn, err := net.Dial("unixpacket", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	record := make([]byte, 1<<20)
	if _, err := conn.Write(helloMagic[:]); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(record); err != nil || !bytes.Equal(record[:n], helloAck[:]) {
		t.Fatalf("handshake: %q, %v", record[:n], err)
	}
	for id, pass := range []string{"miss", "fast hit"} {
		req := &Request{ID: uint64(id + 1), Op: OpRead, Doc: "d", User: r.users[1]}
		if _, err := conn.Write(requestBytes(t, req)); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(record)
		if err != nil {
			t.Fatal(err)
		}
		got := record[:n]
		resp, err := readResponseFrame(bufio.NewReader(bytes.NewReader(got)))
		if err != nil {
			t.Fatalf("%s: one record does not hold the whole frame: %v", pass, err)
		}
		if !strings.HasSuffix(string(resp.Body), banner(r.users[1])) {
			t.Fatalf("%s: body %q", pass, resp.Body)
		}
		if resp.HeadLen != len(resp.Body)-len(banner(r.users[1])) || resp.HeadSig.IsZero() {
			t.Fatalf("%s: the frame names a %d-byte head (%v), want the %d bytes before the banner", pass, resp.HeadLen, resp.HeadSig, len(resp.Body)-len(banner(r.users[1])))
		}
		f, err := encodeResponseFrame(OpRead, &Response{ID: resp.ID, Body: resp.Body, Cacheability: resp.Cacheability,
			CostNanos: resp.CostNanos, ExpiryUnixNanos: resp.ExpiryUnixNanos, Signature: resp.Signature,
			HeadLen: resp.HeadLen, HeadSig: resp.HeadSig})
		if err != nil {
			t.Fatal(err)
		}
		if want := frameBytes(t, f); !bytes.Equal(got, want) {
			t.Fatalf("%s: the %d-byte frame differs from the whole-body frame of %d bytes", pass, len(got), len(want))
		}
	}
	body, _, ok := r.cache.ReadSharedHit("d", r.users[1])
	if !ok || len(body.Tail) != len(banner(r.users[1])) {
		t.Fatalf("the view is not tail-shared: hit %v, %d-byte tail", ok, len(body.Tail))
	}
}

// TestTailSharingBodyOverTheLimit: the frame-size check counts both
// parts of a body, so a head and a tail that only together pass the
// limit are refused with ErrTooLarge.
func TestTailSharingBodyOverTheLimit(t *testing.T) {
	half := make([]byte, (MaxFramePayload-readMetaSize)/2+1)
	if _, err := encodeResponseFrame(OpRead, &Response{Body: half, bodyTail: half[:len(half)-1]}); err != nil {
		t.Fatalf("a body of exactly the limit: %v", err)
	}
	if _, err := encodeResponseFrame(OpRead, &Response{Body: half, bodyTail: half}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("a two-part body over the limit: %v, want ErrTooLarge", err)
	}
}
