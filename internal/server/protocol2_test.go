package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
)

// frameBytes serializes an encoded frame the way the writer goroutine
// would: header, inline body, CRC trailer.
func frameBytes(t testing.TB, f wireFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(f.hdr)
	crc := crc32.Update(0, castagnoli, f.hdr[frameHeaderSize:])
	if len(f.body) > 0 {
		buf.Write(f.body)
		crc = crc32.Update(crc, castagnoli, f.body)
	}
	var tr [frameTrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc)
	buf.Write(tr[:])
	return buf.Bytes()
}

func requestOverWire(t *testing.T, req *Request) *Request {
	t.Helper()
	out, err := readRequestFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, encodeRequestFrame(req)))))
	if err != nil {
		t.Fatalf("decode %v: %v", req.Op, err)
	}
	return out
}

func responseOverWire(t *testing.T, op Op, resp *Response) *Response {
	t.Helper()
	f, err := encodeResponseFrame(op, resp)
	if err != nil {
		t.Fatalf("encode %v: %v", op, err)
	}
	out, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, f))))
	if err != nil {
		t.Fatalf("decode %v: %v", op, err)
	}
	return out
}

func TestV2RequestRoundTrip(t *testing.T) {
	cases := []*Request{
		{ID: 1, Op: OpRead, Doc: "report", User: "eyal"},
		{ID: 2, Op: OpSubscribe, Doc: "d", User: ""},
		{ID: 3, Op: OpWrite, Doc: "d", User: "u", Body: []byte("raw body bytes \x00\xff")},
		{ID: 4, Op: OpWrite, Doc: "d", User: "u", Body: nil},
		{ID: 5, Op: OpAttach, Doc: "d", User: "u", Personal: true, Property: "spell-correct"},
		{ID: 6, Op: OpFind, User: "u", Property: "topic", Value: "tab\tand\nnewline"},
		{ID: 7, Op: OpCreateDocument, Doc: "d", User: "owner", Body: []byte("seed")},
		{ID: 8, Op: OpForwardEvent, Doc: "d", User: "u", Value: "getInputStream"},
		{ID: 9, Op: OpRead, Doc: "report", User: "eyal", Subscribe: true},
		// Larger than the decoder's buffered window: the payload is
		// allocated and the body aliases it.
		{ID: 10, Op: OpWrite, Doc: "d", User: "u", Body: bytes.Repeat([]byte("large "), 2000)},
	}
	for _, req := range cases {
		if got := requestOverWire(t, req); !reflect.DeepEqual(got, req) {
			t.Errorf("op %v: round trip = %+v, want %+v", req.Op, got, req)
		}
	}
	// The subscribe bit belongs to reads; on any other op it is not sent.
	if got := requestOverWire(t, &Request{ID: 11, Op: OpWrite, Doc: "d", Subscribe: true}); got.Subscribe {
		t.Errorf("write carried the subscribe flag: %+v", got)
	}
}

func TestV2ResponseRoundTrip(t *testing.T) {
	// Hot path: read with metadata and raw body.
	in := &Response{ID: 9, Body: []byte("blob\x00\x02payload"), Cacheability: 3,
		CostNanos: 123456789, ExpiryUnixNanos: 42, Signature: sig.Of([]byte("blob\x00\x02payload"))}
	got := responseOverWire(t, OpRead, in)
	if got.ID != in.ID || !bytes.Equal(got.Body, in.Body) ||
		got.Cacheability != in.Cacheability || got.CostNanos != in.CostNanos ||
		got.ExpiryUnixNanos != in.ExpiryUnixNanos || got.Signature != in.Signature {
		t.Errorf("read round trip = %+v, want %+v", got, in)
	}

	// Error responses carry the string as payload regardless of op.
	got = responseOverWire(t, OpRead, &Response{ID: 10, Err: "no such document"})
	if got.ID != 10 || got.Err != "no such document" {
		t.Errorf("error round trip = %+v", got)
	}

	// A read whose subscription could not be installed says so beside
	// the bytes.
	in.SubscribeFailed = true
	if got = responseOverWire(t, OpRead, in); !got.SubscribeFailed || !bytes.Equal(got.Body, in.Body) {
		t.Errorf("flagged read round trip = %+v", got)
	}

	// Every op with nothing to say on success acks with a zero-payload
	// frame, 20 bytes on the wire.
	for _, op := range ackOps {
		f, err := encodeResponseFrame(op, &Response{ID: 11, Text: "dropped"})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(frameBytes(t, f)); n != frameHeaderSize+frameTrailerSize {
			t.Errorf("%v ack is %d bytes on the wire", op, n)
		}
		if got = responseOverWire(t, op, &Response{ID: 11}); !reflect.DeepEqual(got, &Response{ID: 11}) {
			t.Errorf("%v ack round trip = %+v", op, got)
		}
	}

	// Invalidation push: ID 0 with notify fields.
	got = responseOverWire(t, opInvalidate, &Response{NotifyDoc: "d", NotifyUser: "u"})
	if got.ID != 0 || got.NotifyDoc != "d" || got.NotifyUser != "u" {
		t.Errorf("push round trip = %+v", got)
	}

	// The four structured responses ride as gob.
	in = &Response{ID: 12, Stats: map[string]int64{"requests": 7},
		Actives: []string{"a", "b"}, Text: "desc",
		Matches: []Match{{Doc: "d", Value: "v\t1", Level: "personal"}}}
	for _, op := range structuredOps {
		if got = responseOverWire(t, op, in); !reflect.DeepEqual(got, in) {
			t.Errorf("%v gob round trip = %+v", op, got)
		}
	}
}

// TestGobConfinedToStructuredResponses: gob crosses the wire in exactly
// four response shapes. A request that claims a gob payload is refused
// whatever its op, and so is a gob response to an op that acks empty or
// a bare one to an op that answers with structure.
func TestGobConfinedToStructuredResponses(t *testing.T) {
	for op := OpRead; op <= OpFind; op++ {
		b := frameBytes(t, encodeRequestFrame(&Request{ID: 1, Op: op, Doc: "d", User: "u"}))
		b[3] |= byte(flagGob)
		if _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(b))); err == nil ||
			!strings.Contains(err.Error(), "bad request") {
			t.Errorf("%v request carrying flagGob: err = %v", op, err)
		}
		f, err := encodeResponseFrame(op, &Response{ID: 1, Text: "t"})
		if err != nil {
			t.Fatal(err)
		}
		b = frameBytes(t, f)
		if gobbed := binary.BigEndian.Uint16(b[2:4])&flagGob != 0; gobbed != structuredResponse(op) {
			t.Errorf("%v response: gob flag = %v", op, gobbed)
		}
		b[3] ^= byte(flagGob)
		if _, err := readResponseFrame(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("%v response with the gob flag flipped decoded", op)
		}
	}
}

func TestV2HeaderValidation(t *testing.T) {
	valid := func() []byte {
		return frameBytes(t, encodeRequestFrame(&Request{ID: 1, Op: OpRead, Doc: "d", User: "u"}))
	}
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    string
	}{
		{"previous version", func(b []byte) []byte { b[0] = wireVersion - 1; return b }, "version byte"},
		{"unknown op", func(b []byte) []byte { b[1] = 0x40; return b }, "unknown op"},
		{"unknown flags", func(b []byte) []byte { b[2] = 0x80; return b }, "unknown flags"},
		{"subscribe flag off a read", func(b []byte) []byte { b[1], b[3] = byte(OpWrite), byte(flagSubscribe); return b }, "subscribe flag"},
		{"subscribe flag beside another", func(b []byte) []byte { b[3] = byte(flagSubscribe | flagError); return b }, "subscribe flag"},
		{"gob request", func(b []byte) []byte { b[3] = byte(flagGob); return b }, "bad request"},
		{"bad level byte", func(b []byte) []byte {
			b[frameHeaderSize] = 2
			binary.BigEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[frameHeaderSize:len(b)-4], castagnoli))
			return b
		}, "level byte"},
		{"oversized payload", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[12:16], maxFramePayload+1)
			return b
		}, "exceeds limit"},
		{"zero id", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[4:12], 0)
			return b
		}, "id 0"},
		{"payload corruption", func(b []byte) []byte {
			b[frameHeaderSize] ^= 0xff
			return b
		}, "checksum mismatch"},
		{"trailer corruption", func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}, "checksum mismatch"},
	}
	for _, tc := range cases {
		b := tc.corrupt(valid())
		_, err := readRequestFrame(bufio.NewReader(bytes.NewReader(b)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Truncated frames surface read errors, never panics or short reads.
	full := valid()
	for n := 0; n < len(full); n++ {
		if _, err := readRequestFrame(bufio.NewReader(bytes.NewReader(full[:n]))); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", n)
		}
	}
}

func TestV2ResponseChecksumRejectsCorruption(t *testing.T) {
	f, err := encodeResponseFrame(OpRead, &Response{ID: 3, Body: []byte("payload"), Cacheability: 1,
		Signature: sig.Of([]byte("payload"))})
	if err != nil {
		t.Fatal(err)
	}
	valid := frameBytes(t, f)
	// One flipped bit anywhere in the payload fails the frame: in the
	// body (the first byte past the metadata prefix), and in the
	// signature that ends the prefix — a remote cache keys shared
	// storage by those 16 bytes without re-deriving them.
	for name, off := range map[string]int{
		"body":      frameHeaderSize + readMetaSize,
		"signature": frameHeaderSize + readMetaSize - 1,
	} {
		b := append([]byte{}, valid...)
		b[off] ^= 0x01
		if _, err := readResponseFrame(bufio.NewReader(bytes.NewReader(b))); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("corrupted read %s: err = %v", name, err)
		}
	}
	// Empty-payload frames are covered too: their trailer is CRC(nil).
	f, err = encodeResponseFrame(OpWrite, &Response{ID: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := frameBytes(t, f)
	b[len(b)-2] ^= 0x01
	if _, err := readResponseFrame(bufio.NewReader(bytes.NewReader(b))); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted empty-frame trailer: err = %v", err)
	}
}

func TestV2WireStringTruncated(t *testing.T) {
	// Length prefix claims more bytes than the payload holds.
	b := binary.AppendUvarint(nil, 100)
	b = append(b, "short"...)
	if _, _, err := readWireString(b); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
	if _, _, err := readWireString(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

// TestFrameWriterBatchesAndOrders: frames enqueued while the writer is
// busy coalesce into one writev, in FIFO order, and the batching
// counter records them.
func TestFrameWriterBatchesAndOrders(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	defer cliEnd.Close()
	var batched atomic.Int64
	fw := newFrameWriter(srvEnd, 0, &batched, nil, nil)
	defer func() { fw.close(); srvEnd.Close() }()

	const n = 10
	for i := 1; i <= n; i++ {
		f, err := encodeResponseFrame(OpWrite, &Response{ID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing has been read yet, so at most the first frame started a
	// solo batch; the rest must coalesce.
	br := bufio.NewReader(cliEnd)
	for i := 1; i <= n; i++ {
		resp, err := readResponseFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if resp.ID != uint64(i) {
			t.Fatalf("frame %d: ID = %d (reordered)", i, resp.ID)
		}
	}
	// The counter is bumped after the batch's WriteTo returns, which
	// races the final read completing it — poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for batched.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("framesBatched = %d, want >= 2", batched.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFrameWriterClosedRejectsEnqueue(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	defer srvEnd.Close()
	defer cliEnd.Close()
	var fails atomic.Int32
	fw := newFrameWriter(srvEnd, 0, nil, nil, func(error) { fails.Add(1) })
	fw.close()
	f, err := encodeResponseFrame(OpWrite, &Response{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.enqueue(f); err != errWireClosed {
		t.Fatalf("enqueue after close = %v, want errWireClosed", err)
	}
	// A deliberate close is not a wire failure.
	time.Sleep(10 * time.Millisecond)
	if fails.Load() != 0 {
		t.Fatalf("onFail fired %d times on deliberate close", fails.Load())
	}
}

func TestFrameWriterWriteErrorFiresOnFailOnce(t *testing.T) {
	srvEnd, cliEnd := net.Pipe()
	defer srvEnd.Close()
	failc := make(chan error, 4)
	fw := newFrameWriter(srvEnd, 100*time.Millisecond, nil, nil, func(err error) { failc <- err })
	cliEnd.Close() // peer gone: the next write must fail
	f, err := encodeResponseFrame(OpWrite, &Response{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = fw.enqueue(f) // may race the writer's death; either outcome is fine
	select {
	case err := <-failc:
		if err == nil {
			t.Fatal("onFail invoked with nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onFail never invoked after write error")
	}
	// Further failures are swallowed; onFail fires at most once, and
	// re-entrant close (the connection owner tearing down) is safe.
	fw.fail(io.ErrUnexpectedEOF)
	fw.close()
	select {
	case <-failc:
		t.Fatal("onFail invoked twice")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestV2ClientFullSuite runs every wire op through one client against a
// live server.
func TestV2ClientFullSuite(t *testing.T) {
	srv, c, space := testServer(t)
	exerciseAllOps(t, srv, c, space)
}

func exerciseAllOps(t *testing.T, srv *Server, c *Client, space *docspace.Space) {
	t.Helper()
	if err := c.CreateDocument("d", "eyal", []byte("teh content")); err != nil {
		t.Fatal(err)
	}
	data, meta, err := c.Read("d", "eyal")
	if err != nil || string(data) != "teh content" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if meta.Cost < 0 {
		t.Fatalf("meta = %+v", meta)
	}
	if err := c.Write("d", "eyal", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if data, _, _ = c.Read("d", "eyal"); string(data) != "rewritten" {
		t.Fatalf("after write: %q", data)
	}
	if err := c.Attach("d", "eyal", false, "uppercase"); err != nil {
		t.Fatal(err)
	}
	if data, _, _ = c.Read("d", "eyal"); string(data) != "REWRITTEN" {
		t.Fatalf("attach ineffective: %q", data)
	}
	names, err := c.ListActives("d", "eyal", false)
	if err != nil || len(names) != 1 || names[0] != "uppercase" {
		t.Fatalf("actives = %v, %v", names, err)
	}
	if err := c.Detach("d", "eyal", false, "uppercase"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	if data, _, _ = c.Read("d", "paul"); string(data) != "rewritten" {
		t.Fatalf("paul read: %q", data)
	}
	if err := c.AttachStatic("d", "eyal", false, "topic", "caching"); err != nil {
		t.Fatal(err)
	}
	matches, err := c.Find("eyal", "topic", "")
	if err != nil || len(matches) != 1 || matches[0].Doc != "d" || matches[0].Value != "caching" {
		t.Fatalf("find = %v, %v", matches, err)
	}
	desc, err := c.Describe("d")
	if err != nil || desc == "" {
		t.Fatalf("describe = %q, %v", desc, err)
	}
	if err := c.ForwardEvent("d", "eyal", event.Kinds()[0].String()); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil || stats["requests"] == 0 {
		t.Fatalf("stats = %v, %v", stats, err)
	}
	// Subscribe + server-side write → invalidation push.
	got := make(chan string, 4)
	c.OnInvalidate(func(doc, user string) { got <- doc })
	if err := c.Subscribe("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if err := space.WriteDocument("d", "eyal", []byte("pushed")); err != nil {
		t.Fatal(err)
	}
	select {
	case doc := <-got:
		if doc != "d" {
			t.Fatalf("push for %q", doc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("invalidation push never arrived")
	}
	// Errors cross the wire as strings.
	if _, _, err := c.Read("ghost", "eyal"); err == nil ||
		!strings.Contains(err.Error(), "no such document") {
		t.Fatalf("error propagation: %v", err)
	}
	sent, recv := srv.WireBytes()
	if sent <= 0 || recv <= 0 {
		t.Fatalf("WireBytes = %d, %d; want both positive", sent, recv)
	}
}

// TestHandshakeRefusal pins both sides of the typed refusal. A peer
// that does not open with this version's magic preamble — a gob-encoded
// Request, what a pre-framing client would send, or the previous wire
// version's magic — is closed unanswered, before any decoder sees its
// bytes. A peer of the previous version on the other end of a dial
// yields ErrHandshake, whether it closes on the unknown magic (what
// that server does) or answers with its own ack. A listener that
// accepts but never acks yields ErrHandshake within the dial timeout,
// on Dial and on every background redial, and the reconnect loop backs
// off between attempts instead of spinning.
func TestHandshakeRefusal(t *testing.T) {
	// redirect, once set, sends every (re)dial to the mute peer below.
	var redirect atomic.Pointer[string]
	srv, c, _ := testServer(t,
		WithDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			if p := redirect.Load(); p != nil {
				addr = *p
			}
			return net.DialTimeout("tcp", addr, timeout)
		}),
		WithDialTimeout(50*time.Millisecond),
		WithReconnect(20*time.Millisecond, 40*time.Millisecond))

	prevMagic, prevAck := helloMagic, helloAck
	prevMagic[7], prevAck[7] = '0'+wireVersion-1, '0'+wireVersion-1
	var gobOpen bytes.Buffer
	if err := gob.NewEncoder(&gobOpen).Encode(&Request{ID: 1, Op: OpStats}); err != nil {
		t.Fatal(err)
	}
	// The previous version's client follows its magic with a read frame;
	// nothing of it may be decoded.
	prevOpen := append(prevMagic[:], wireVersion-1, byte(OpRead))
	for name, opening := range map[string][]byte{"gob": gobOpen.Bytes(), "previous magic": prevOpen} {
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(opening); err != nil {
			t.Fatal(err)
		}
		_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		// EOF, or a reset when the server closed with the rest of the
		// opening still unread — either way not one byte of reply.
		var ne net.Error
		if n, err := raw.Read(make([]byte, 1)); n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s peer read = %d bytes, %v; want the connection closed with no reply", name, n, err)
		}
		if requests, _, _ := srv.Counters(); requests != 0 {
			t.Fatalf("%s peer reached a handler: %d requests", name, requests)
		}
	}

	// The dial side of the same mismatch: a previous-version server
	// closes on a magic it does not know; a peer that acks with the
	// previous version's ack is refused just the same.
	for name, acks := range map[string]bool{"closes": false, "acks": true} {
		old, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer old.Close()
		go func() {
			for {
				conn, err := old.Accept()
				if err != nil {
					return
				}
				var magic [len(helloMagic)]byte
				if _, err := io.ReadFull(conn, magic[:]); err == nil && (acks || magic == prevMagic) {
					_, _ = conn.Write(prevAck[:])
				}
				conn.Close()
			}
		}()
		if _, err := Dial(old.Addr().String(), WithDialTimeout(5*time.Second)); !errors.Is(err, ErrHandshake) {
			t.Fatalf("Dial against a previous-version peer that %s = %v, want ErrHandshake", name, err)
		}
	}

	// A listener that accepts and holds the socket without acking.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			defer conn.Close() // held open until the listener closes
		}
	}()
	start := time.Now()
	if _, err := Dial(mute.Addr().String(), WithDialTimeout(50*time.Millisecond)); !errors.Is(err, ErrHandshake) {
		t.Fatalf("Dial against a mute peer = %v, want ErrHandshake", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("handshake failure took %v, want it bounded by the 50ms dial timeout", d)
	}

	// Repoint the connected client at the mute peer and cut its wire:
	// every redial now fails the handshake.
	muteAddr := mute.Addr().String()
	redirect.Store(&muteAddr)
	accepted.Store(0)
	srv.Close()
	time.Sleep(400 * time.Millisecond)
	if st := c.State(); st != StateDisconnected {
		t.Fatalf("state = %v, want disconnected while the peer refuses the handshake", st)
	}
	// Each attempt costs the 50ms handshake wait plus 20–80ms of backoff.
	if n := accepted.Load(); n < 2 || n > 10 {
		t.Fatalf("%d redials in 400ms, want a backed-off handful", n)
	}
	if c.Epoch() != 1 {
		t.Fatalf("Epoch = %d against a peer that never acks, want 1", c.Epoch())
	}
}

// TestEveryFrameTrailerIsItsPayloadCRC: whichever path produces a
// frame — the decode loop's fast hit, a handler, a large body that
// leaves in several writes, a push — its trailer is the CRC-32C of the payload bytes on the wire.
// The frames are captured raw off a loopback socket and checked
// against a checksum computed here, not by readTrailer.
func TestEveryFrameTrailerIsItsPayloadCRC(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	cache := core.New(space, core.Options{Name: "trailer-test", Capacity: 1 << 20})
	t.Cleanup(func() { cache.Close() })
	srv := NewCached(space, backing, cache)
	serveAndDial(t, srv)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(helloMagic[:]); err != nil {
		t.Fatal(err)
	}
	var ack [len(helloAck)]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || ack != helloAck {
		t.Fatalf("handshake: ack %q, err %v", ack, err)
	}

	type rawFrame struct {
		op      Op
		flags   uint16
		id      uint64
		payload []byte
		trailer uint32
	}
	readRaw := func() rawFrame {
		t.Helper()
		var h [frameHeaderSize]byte
		if _, err := io.ReadFull(conn, h[:]); err != nil {
			t.Fatal(err)
		}
		f := rawFrame{op: Op(h[1]), flags: binary.BigEndian.Uint16(h[2:4]), id: binary.BigEndian.Uint64(h[4:12])}
		rest := make([]byte, binary.BigEndian.Uint32(h[12:16])+frameTrailerSize)
		if _, err := io.ReadFull(conn, rest); err != nil {
			t.Fatal(err)
		}
		f.payload = rest[:len(rest)-frameTrailerSize]
		f.trailer = binary.BigEndian.Uint32(rest[len(rest)-frameTrailerSize:])
		return f
	}
	// call sends req and returns its answer, setting aside any push that
	// arrives first.
	var pushes []rawFrame
	var nextID uint64
	call := func(req *Request) rawFrame {
		t.Helper()
		nextID++
		req.ID = nextID
		if _, err := conn.Write(frameBytes(t, encodeRequestFrame(req))); err != nil {
			t.Fatal(err)
		}
		for {
			f := readRaw()
			if f.id == req.ID {
				return f
			}
			if f.id != 0 {
				t.Fatalf("frame for call %d while awaiting %d", f.id, req.ID)
			}
			pushes = append(pushes, f)
		}
	}

	small := bytes.Repeat([]byte("trailer over a handler read "), 64)
	big := bytes.Repeat([]byte("trailer over a large handler read "), 2048)
	frames := map[string]rawFrame{}
	frames["zero-payload ack"] = call(&Request{Op: OpCreateDocument, Doc: "small", User: "eyal", Body: small})
	if f := call(&Request{Op: OpCreateDocument, Doc: "big", User: "eyal", Body: big}); f.flags != 0 {
		t.Fatalf("create big: flags %#x, payload %q", f.flags, f.payload)
	}
	frames["handler read (subscribe flag)"] = call(&Request{Op: OpRead, Doc: "small", User: "eyal", Subscribe: true})
	frames["decode-loop fast hit"] = call(&Request{Op: OpRead, Doc: "small", User: "eyal"})
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want one handler miss then one fast hit", st)
	}
	frames["large handler read"] = call(&Request{Op: OpRead, Doc: "big", User: "eyal"})
	frames["error"] = call(&Request{Op: OpRead, Doc: "no-such-doc", User: "eyal"})
	frames["gob Stats"] = call(&Request{Op: OpStats})
	if f := call(&Request{Op: OpWrite, Doc: "small", User: "eyal", Body: []byte("rewritten")}); f.flags != 0 {
		t.Fatalf("write: flags %#x, payload %q", f.flags, f.payload)
	}
	for len(pushes) == 0 {
		pushes = append(pushes, readRaw())
	}
	frames["invalidation push"] = pushes[0]

	shapes := map[string]struct {
		op    Op
		flags uint16
		body  []byte // the read body behind the metadata, when a read
	}{
		"decode-loop fast hit":          {op: OpRead, body: small},
		"handler read (subscribe flag)": {op: OpRead, body: small},
		"large handler read":            {op: OpRead, body: big},
		"invalidation push":             {op: opInvalidate},
		"error":                         {op: OpRead, flags: flagError},
		"gob Stats":                     {op: OpStats, flags: flagGob},
		"zero-payload ack":              {op: OpCreateDocument},
	}
	castagnoliTab := crc32.MakeTable(crc32.Castagnoli)
	for name, want := range shapes {
		f := frames[name]
		if f.op != want.op || f.flags != want.flags {
			t.Errorf("%s: op %v flags %#x, want op %v flags %#x", name, f.op, f.flags, want.op, want.flags)
		}
		if want.body != nil && (len(f.payload) < readMetaSize || !bytes.Equal(f.payload[readMetaSize:], want.body)) {
			t.Errorf("%s: payload does not carry the document's body", name)
		}
		if want.op == OpCreateDocument && len(f.payload) != 0 {
			t.Errorf("%s: %d payload bytes, want none", name, len(f.payload))
		}
		if crc := crc32.Checksum(f.payload, castagnoliTab); f.trailer != crc {
			t.Errorf("%s: trailer %#x, want the payload's CRC-32C %#x", name, f.trailer, crc)
		}
	}
}
