// The binary wire protocol (version 4: one hand-written request layout
// and a subscription that rides the read).
//
// Requests, reads and pushes are hand-written codecs over a fixed
// header, so blob payloads travel as raw byte ranges — never re-encoded
// — and a single writer goroutine batches small frames into one writev
// (net.Buffers) per wakeup.
//
// Frame layout (16-byte header, big-endian multi-byte fields):
//
//	offset 0  version (1 byte, 0x04)
//	offset 1  op      (1 byte)
//	offset 2  flags   (2 bytes)
//	offset 4  call ID (8 bytes; 0 = server push)
//	offset 12 payload length (4 bytes)
//	offset 16 payload
//	          payload CRC32-C (4 bytes)
//
// Every request payload has the same layout, whatever the op:
//
//	level    (1 byte: 0 universal, 1 personal)
//	doc, user, property, value (each a uvarint length, then the bytes)
//	body     (the rest of the payload, raw)
//
// An op leaves the fields it has no use for empty. No request carries
// flagGob or flagError; the decoder refuses both.
//
// Responses come in five shapes. An error is flagError with the error
// string as payload. A Read is a fixed 33-byte metadata prefix —
// cacheability (1), cost nanos (8), expiry nanos (8), content signature
// (16) — followed by the raw body; the trailer covers all of it, so the
// signature a remote cache keys its blob by is checked together with
// the bytes it names. An invalidation push (call ID 0) is doc and user
// as two strings. Stats, ListActives, Describe and Find, the four ops
// that answer with structure, carry a gob-encoded Response under
// flagGob. Every other op answers success with a zero-payload frame.
//
// flagSubscribe is valid on OpRead frames only and means something
// different in each direction. On the request it asks the server to
// install this connection's notifiers for (doc, user) before it
// executes the read, in the same handler, so the notifiers predate the
// snapshot the read returns: every change after that snapshot is
// pushed. On the response it reports that the installation failed (no
// such document or reference yet): the bytes are good for this one
// answer, and a cache must not keep them.
//
// Handshake: a client opens with an 8-byte magic preamble; the server
// reads the first bytes of every accepted connection and answers the
// magic with an ack before switching to framing. A peer that opens
// with anything else — the previous version's magic included — is
// closed without a reply, and a client that gets no ack fails with
// ErrHandshake. The preamble's last byte names the version and moves
// with every layout change: the payload checksum cannot tell a shifted
// layout from a valid one, so peers of different versions must never
// get as far as exchanging frames (TestWireGolden fails when the bytes
// move under an unchanged version). The decoder validates every header
// field strictly, so a corrupted or reordered byte stream (the
// simulator's fault model) fails the connection instead of desyncing
// silently.
package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/sig"
)

// wireVersion is the first byte of every frame header.
const wireVersion = 4

const (
	frameHeaderSize = 16
	// frameTrailerSize is the CRC32-C of the payload, appended after
	// it. The header is validated structurally; the trailer is what
	// catches corruption inside a raw payload, where the bytes are
	// arbitrary and validation has nothing to check. Without it a
	// partially-lost frame could silently splice later frames into a
	// blob body; a raw binary framing must fail loudly there.
	frameTrailerSize = 4
	// maxFramePayload bounds a single frame; anything larger is treated
	// as a corrupt header, not an allocation request.
	maxFramePayload = 64 << 20
	// readMetaSize is the fixed metadata prefix of a Read response
	// payload: cacheability (1) + cost nanos (8) + expiry nanos (8) +
	// content signature (16).
	readMetaSize = 17 + sig.Size
)

// castagnoli is the CRC32-C table for frame trailers (hardware
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readTrailer consumes a frame's CRC trailer and verifies it against
// the receiver-computed payload checksum. The four bytes are parsed in
// place from the buffered window (Peek) rather than read into a local
// array: passing a stack array down an io.Reader interface forces it
// to the heap, and the trailer is read once per frame on the hot path.
func readTrailer(br *bufio.Reader, crc uint32) error {
	t, err := br.Peek(frameTrailerSize)
	if len(t) < frameTrailerSize {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if binary.BigEndian.Uint32(t) != crc {
		return errors.New("server: bad frame: payload checksum mismatch")
	}
	_, _ = br.Discard(frameTrailerSize)
	return nil
}

// readPayload reads a plen-byte payload into its own allocation and
// verifies the trailer behind it.
func readPayload(br *bufio.Reader, plen int) ([]byte, error) {
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	if err := readTrailer(br, crc32.Checksum(payload, castagnoli)); err != nil {
		return nil, err
	}
	return payload, nil
}

// Frame flags.
const (
	// flagGob marks a response payload that is a gob-encoded Response:
	// Stats, ListActives, Describe and Find, and nothing else.
	flagGob uint16 = 1 << 0
	// flagError marks a response whose payload is the error string.
	flagError uint16 = 1 << 1
	// flagSubscribe, on an OpRead request, asks for the connection's
	// notifiers to be installed for the key before the read executes;
	// on the OpRead response it says they could not be.
	flagSubscribe uint16 = 1 << 2
)

// opInvalidate is the wire op for server→client invalidation pushes
// (decoded into a Response with ID 0). Never valid in a request.
const opInvalidate Op = 0x7f

// helloMagic opens every connection; its last byte names the version
// ("…v4"), so it moves whenever wireVersion does.
var helloMagic = [8]byte{0x00, 'P', 'L', 'W', 'R', 'E', 'v', '0' + wireVersion}

// helloAck is the server's answer to helloMagic.
var helloAck = [8]byte{0x00, 'P', 'L', 'A', 'C', 'K', 'v', '0' + wireVersion}

// errWireClosed is returned by sends on a connection whose writer
// has shut down.
var errWireClosed = errors.New("server: wire connection closed")

// smallBufPool recycles header + inline-payload staging buffers for
// frames. The pool traffics in *[]byte tokens: the token
// acquired by getSmallBuf rides in the frame and is handed back to
// putSmallBuf, so returning a buffer never re-boxes the slice header
// (Put(&b) on a local would allocate on every release).
var smallBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

const maxPooledBuf = 64 << 10

// getSmallBuf leases a staging buffer: b is the working slice, already
// sized for the frame header; p is the pool token to pass back to
// putSmallBuf along with however b has grown.
func getSmallBuf() (p *[]byte, b []byte) {
	p = smallBufPool.Get().(*[]byte)
	return p, (*p)[:frameHeaderSize]
}

// putSmallBuf returns a leased buffer. Buffers that grew past
// maxPooledBuf are dropped (the token re-enters the pool with its
// original backing array).
func putSmallBuf(p *[]byte, b []byte) {
	if p == nil {
		return
	}
	if cap(b) >= frameHeaderSize && cap(b) <= maxPooledBuf {
		*p = b[:0]
	}
	smallBufPool.Put(p)
}

// putFrameHeader writes the fixed header into b[:frameHeaderSize].
func putFrameHeader(b []byte, op Op, flags uint16, id uint64, plen int) {
	b[0] = wireVersion
	b[1] = byte(op)
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint64(b[4:12], id)
	binary.BigEndian.PutUint32(b[12:16], uint32(plen))
}

// readFrameHeader reads and strictly validates one header. Any
// malformation — wrong version byte, unknown op or flag, oversized
// payload — is a connection-fatal error: the byte stream behind it
// cannot be trusted.
func readFrameHeader(br *bufio.Reader) (op Op, flags uint16, id uint64, plen int, err error) {
	// Parsed in place from the buffered window; see readTrailer for why.
	h, err := br.Peek(frameHeaderSize)
	if len(h) < frameHeaderSize {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, 0, 0, err
	}
	if h[0] != wireVersion {
		return 0, 0, 0, 0, fmt.Errorf("server: bad frame: version byte 0x%02x", h[0])
	}
	op = Op(h[1])
	if op > OpFind && op != opInvalidate {
		return 0, 0, 0, 0, fmt.Errorf("server: bad frame: unknown op 0x%02x", h[1])
	}
	flags = binary.BigEndian.Uint16(h[2:4])
	if flags&^(flagGob|flagError|flagSubscribe) != 0 {
		return 0, 0, 0, 0, fmt.Errorf("server: bad frame: unknown flags 0x%04x", flags)
	}
	if flags&flagSubscribe != 0 && (op != OpRead || flags != flagSubscribe) {
		return 0, 0, 0, 0, fmt.Errorf("server: bad frame: subscribe flag on op %v flags 0x%04x", op, flags)
	}
	id = binary.BigEndian.Uint64(h[4:12])
	n := binary.BigEndian.Uint32(h[12:16])
	if n > maxFramePayload {
		return 0, 0, 0, 0, fmt.Errorf("server: bad frame: payload length %d exceeds limit", n)
	}
	_, _ = br.Discard(frameHeaderSize)
	return op, flags, id, int(n), nil
}

// appendWireString appends a uvarint-length-prefixed string.
func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readWireString consumes one string from p, returning the remainder.
func readWireString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return "", nil, errors.New("server: bad frame: truncated string")
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

// wireFrame is one encoded frame queued for write. hdr carries the
// header plus any inline payload prefix (leased from smallBufPool when
// hdrPool is non-nil); body carries a raw payload tail written as-is —
// the blob bytes are never copied into a staging buffer.
type wireFrame struct {
	hdr     []byte
	hdrPool *[]byte
	body    []byte
}

// encodeRequestFrame renders one client→server frame in the one request
// layout. The body is never copied: it rides as the frame's raw tail.
func encodeRequestFrame(req *Request) wireFrame {
	p, b := getSmallBuf()
	level := byte(0)
	if req.Personal {
		level = 1
	}
	b = append(b, level)
	b = appendWireString(b, req.Doc)
	b = appendWireString(b, req.User)
	b = appendWireString(b, req.Property)
	b = appendWireString(b, req.Value)
	var flags uint16
	if req.Subscribe && req.Op == OpRead {
		flags = flagSubscribe
	}
	putFrameHeader(b, req.Op, flags, req.ID, len(b)-frameHeaderSize+len(req.Body))
	return wireFrame{hdr: b, hdrPool: p, body: req.Body}
}

// decodeRequestPayload fills req from a payload in the request layout.
// The strings are copied out; Body aliases payload.
func decodeRequestPayload(req *Request, payload []byte) (err error) {
	if len(payload) == 0 || payload[0] > 1 {
		return errors.New("server: bad frame: bad level byte")
	}
	req.Personal = payload[0] == 1
	rest := payload[1:]
	for _, s := range []*string{&req.Doc, &req.User, &req.Property, &req.Value} {
		if *s, rest, err = readWireString(rest); err != nil {
			return err
		}
	}
	if len(rest) > 0 {
		req.Body = rest
	}
	return nil
}

// readRequestFrame decodes one client→server frame.
func readRequestFrame(br *bufio.Reader) (*Request, error) {
	op, flags, id, plen, err := readFrameHeader(br)
	if err != nil {
		return nil, err
	}
	if op == opInvalidate || flags&(flagError|flagGob) != 0 || id == 0 {
		return nil, fmt.Errorf("server: bad request: op %v flags 0x%04x id %d", op, flags, id)
	}
	req := &Request{ID: id, Op: op, Subscribe: flags&flagSubscribe != 0}
	if plen+frameTrailerSize <= br.Size() {
		// A payload that fits the buffered window — every request but a
		// large write — is checked and decoded in place: the strings
		// copy out, a body is copied to its own exact-size slice, and
		// the payload itself is never allocated.
		win, err := br.Peek(plen + frameTrailerSize)
		if len(win) < plen+frameTrailerSize {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		payload := win[:plen]
		if binary.BigEndian.Uint32(win[plen:]) != crc32.Checksum(payload, castagnoli) {
			return nil, errors.New("server: bad frame: payload checksum mismatch")
		}
		if err := decodeRequestPayload(req, payload); err != nil {
			return nil, err
		}
		if req.Body != nil {
			req.Body = append([]byte(nil), req.Body...)
		}
		_, _ = br.Discard(plen + frameTrailerSize)
		return req, nil
	}
	payload, err := readPayload(br, plen)
	if err != nil {
		return nil, err
	}
	if err := decodeRequestPayload(req, payload); err != nil {
		return nil, err
	}
	return req, nil // Body is the remainder of the payload, no copy
}

// structuredResponse reports whether op answers success with a
// gob-encoded Response; every other request op answers with either the
// read layout or a zero-payload frame.
func structuredResponse(op Op) bool {
	switch op {
	case OpStats, OpListActives, OpDescribe, OpFind:
		return true
	}
	return false
}

// encodeResponseFrame renders one server→client frame for op (the
// request's op, echoed so the client knows how to decode the payload;
// opInvalidate for pushes).
func encodeResponseFrame(op Op, resp *Response) (wireFrame, error) {
	if resp.Err != "" {
		p, b := getSmallBuf()
		b = append(b, resp.Err...)
		putFrameHeader(b, op, flagError, resp.ID, len(b)-frameHeaderSize)
		return wireFrame{hdr: b, hdrPool: p}, nil
	}
	switch op {
	case OpRead:
		p, b := getSmallBuf()
		b = append(b, byte(resp.Cacheability))
		b = binary.BigEndian.AppendUint64(b, uint64(resp.CostNanos))
		b = binary.BigEndian.AppendUint64(b, uint64(resp.ExpiryUnixNanos))
		b = append(b, resp.Signature[:]...)
		var flags uint16
		if resp.SubscribeFailed {
			flags = flagSubscribe
		}
		putFrameHeader(b, op, flags, resp.ID, readMetaSize+len(resp.Body))
		return wireFrame{hdr: b, hdrPool: p, body: resp.Body}, nil
	case opInvalidate:
		p, b := getSmallBuf()
		b = appendWireString(b, resp.NotifyDoc)
		b = appendWireString(b, resp.NotifyUser)
		putFrameHeader(b, opInvalidate, 0, 0, len(b)-frameHeaderSize)
		return wireFrame{hdr: b, hdrPool: p}, nil
	}
	if structuredResponse(op) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			return wireFrame{}, err
		}
		p, b := getSmallBuf()
		putFrameHeader(b, op, flagGob, resp.ID, buf.Len())
		return wireFrame{hdr: b, hdrPool: p, body: buf.Bytes()}, nil
	}
	// Every other op has nothing to say on success.
	p, b := getSmallBuf()
	putFrameHeader(b, op, 0, resp.ID, 0)
	return wireFrame{hdr: b, hdrPool: p}, nil
}

// readResponseFrame decodes one server→client frame. Read bodies are
// read straight into an exact-size allocation the caller keeps — no
// staging, no oversized scratch.
func readResponseFrame(br *bufio.Reader) (*Response, error) {
	op, flags, id, plen, err := readFrameHeader(br)
	if err != nil {
		return nil, err
	}
	switch {
	case flags&flagError != 0:
		payload, err := readPayload(br, plen)
		if err != nil {
			return nil, err
		}
		e := string(payload)
		if e == "" {
			e = "unknown server error"
		}
		return &Response{ID: id, Err: e}, nil
	case flags&flagGob != 0:
		if !structuredResponse(op) {
			return nil, fmt.Errorf("server: bad response: op %v with the gob flag", op)
		}
		payload, err := readPayload(br, plen)
		if err != nil {
			return nil, err
		}
		var resp Response
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&resp); err != nil {
			return nil, fmt.Errorf("server: bad gob response: %w", err)
		}
		resp.ID = id
		return &resp, nil
	}
	switch op {
	case OpRead:
		if plen < readMetaSize {
			return nil, errors.New("server: bad read response: short metadata")
		}
		// The fixed metadata prefix parses in place from the buffered
		// window; only the body lands in a fresh allocation — the one
		// buffer the caller keeps.
		meta, err := br.Peek(readMetaSize)
		if len(meta) < readMetaSize {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		resp := &Response{
			ID:              id,
			SubscribeFailed: flags&flagSubscribe != 0,
			Cacheability:    int(meta[0]),
			CostNanos:       int64(binary.BigEndian.Uint64(meta[1:9])),
			ExpiryUnixNanos: int64(binary.BigEndian.Uint64(meta[9:17])),
		}
		copy(resp.Signature[:], meta[17:readMetaSize])
		crc := crc32.Update(0, castagnoli, meta)
		_, _ = br.Discard(readMetaSize)
		body := make([]byte, plen-readMetaSize)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, err
		}
		if err := readTrailer(br, crc32.Update(crc, castagnoli, body)); err != nil {
			return nil, err
		}
		resp.Body = body
		return resp, nil
	case opInvalidate:
		payload, err := readPayload(br, plen)
		if err != nil {
			return nil, err
		}
		doc, rest, err := readWireString(payload)
		if err != nil {
			return nil, err
		}
		user, rest, err := readWireString(rest)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, errors.New("server: bad frame: trailing bytes")
		}
		return &Response{ID: 0, NotifyDoc: doc, NotifyUser: user}, nil
	}
	if structuredResponse(op) {
		return nil, fmt.Errorf("server: bad response: op %v without the gob flag", op)
	}
	if plen != 0 {
		return nil, fmt.Errorf("server: bad response: op %v with %d payload bytes", op, plen)
	}
	if err := readTrailer(br, 0); err != nil {
		return nil, err
	}
	return &Response{ID: id}, nil
}

// Batching caps for the writer goroutine: one writev carries at most
// this many frames / this many inline bytes before it is flushed.
const (
	maxBatchFrames = 64
	maxBatchBytes  = 1 << 20
)

// frameWriter serializes all frame writes for one connection.
// Senders hand frames to send: an uncontended sender takes the write
// baton (wmu) and writes inline on its own goroutine — no channel hop,
// no wakeup — after first draining anything already queued, so frame
// order is exactly enqueue order. Contended senders enqueue instead,
// and the writer goroutine drains the queue in net.Buffers writev
// batches, so concurrent small frames coalesce into one syscall
// instead of one write (and one lock hand-off) each.
type frameWriter struct {
	c        net.Conn
	timeout  time.Duration
	ch       chan wireFrame
	wake     chan struct{} // wakes the writer goroutine; cap 1
	dead     chan struct{}
	deadOnce sync.Once
	onFail   func(error)   // invoked at most once, from the writer goroutine
	batched  *atomic.Int64 // frames that shared a multi-frame writev (nil ok)
	bytesOut *atomic.Int64 // total bytes written (nil ok)

	// wmu is the write baton: whoever holds it owns the batch state
	// below and the connection's write side. The writer goroutine and
	// inline senders both take it; frames are only ever dequeued while
	// holding it, which is what makes inline writes order-preserving.
	wmu sync.Mutex

	// Batch state, owned by the wmu holder and reused across batches
	// so steady-state batching allocates nothing: the vector and
	// release slices keep their backing arrays, the trailer bytes live
	// in a fixed array addressed per frame.
	bufs     [][]byte
	release  []leasedBuf
	trailers [maxBatchFrames][frameTrailerSize]byte
	total    int
	frames   int
}

// leasedBuf pairs a pooled staging buffer with its pool token for
// release after the batch flushes.
type leasedBuf struct {
	p *[]byte
	b []byte
}

func newFrameWriter(c net.Conn, timeout time.Duration, batched, bytesOut *atomic.Int64, onFail func(error)) *frameWriter {
	w := &frameWriter{
		c:        c,
		timeout:  timeout,
		ch:       make(chan wireFrame, 256),
		wake:     make(chan struct{}, 1),
		dead:     make(chan struct{}),
		onFail:   onFail,
		batched:  batched,
		bytesOut: bytesOut,
	}
	go w.loop()
	return w
}

// send writes one frame, inline when the write baton is free — the
// sender drains anything already queued first (preserving enqueue
// order) and then writes its own frame on its own goroutine, skipping
// the channel hop and writer wakeup that dominate per-call overhead
// when the connection is otherwise idle. A contended send falls back
// to the queue and the writer goroutine's batching.
func (w *frameWriter) send(f wireFrame) error {
	if w.wmu.TryLock() {
		select {
		case <-w.dead:
			w.wmu.Unlock()
			putSmallBuf(f.hdrPool, f.hdr)
			return errWireClosed
		default:
		}
		err := w.drainLocked(&f)
		w.wmu.Unlock()
		if err != nil {
			w.fail(err)
			return errWireClosed
		}
		return nil
	}
	return w.enqueue(f)
}

// enqueue queues one frame, blocking when the writer is saturated
// (backpressure) and failing once the connection is retired. The dead
// check runs first on its own so a retired writer rejects
// deterministically even while the queue still has room (a two-way
// select would pick at random when both are ready).
func (w *frameWriter) enqueue(f wireFrame) error {
	select {
	case <-w.dead:
	default:
		select {
		case w.ch <- f:
			select {
			case w.wake <- struct{}{}:
			default:
			}
			return nil
		case <-w.dead:
		}
	}
	putSmallBuf(f.hdrPool, f.hdr)
	return errWireClosed
}

// fail retires the writer. err == nil means a deliberate close; a real
// error additionally fires onFail so the connection owner can tear the
// wire down. onFail runs outside the Once body: tearing down the wire
// re-enters fail via close, and a re-entrant Once.Do would deadlock.
func (w *frameWriter) fail(err error) {
	first := false
	w.deadOnce.Do(func() {
		close(w.dead)
		first = true
	})
	if first && err != nil && w.onFail != nil {
		w.onFail(err)
	}
}

// close shuts the writer down without treating it as a wire failure.
func (w *frameWriter) close() { w.fail(nil) }

// add stages one frame into the current batch and computes its trailer
// by scanning the payload it queues.
func (w *frameWriter) add(f wireFrame) {
	w.bufs = append(w.bufs, f.hdr)
	w.total += len(f.hdr)
	if f.hdrPool != nil {
		w.release = append(w.release, leasedBuf{p: f.hdrPool, b: f.hdr})
	}
	crc := crc32.Update(0, castagnoli, f.hdr[frameHeaderSize:])
	if len(f.body) > 0 {
		w.bufs = append(w.bufs, f.body)
		w.total += len(f.body)
		crc = crc32.Update(crc, castagnoli, f.body)
	}
	t := &w.trailers[w.frames]
	binary.BigEndian.PutUint32(t[:], crc)
	w.bufs = append(w.bufs, t[:])
	w.total += frameTrailerSize
	w.frames++
}

// drainLocked builds and flushes writev batches from the queue, plus
// an optional trailing frame from an inline sender, until everything
// staged is on the wire. The caller holds wmu. Frames only ever leave
// the queue here, under the baton, so write order is exactly enqueue
// order regardless of which goroutine drains.
func (w *frameWriter) drainLocked(extra *wireFrame) error {
	for {
		w.bufs = w.bufs[:0]
		w.release = w.release[:0]
		w.total, w.frames = 0, 0
	fill:
		for w.frames < maxBatchFrames && w.total < maxBatchBytes {
			select {
			case f := <-w.ch:
				w.add(f)
			default:
				if extra != nil {
					w.add(*extra)
					extra = nil
					continue
				}
				break fill
			}
		}
		if w.frames == 0 {
			return nil
		}
		if err := w.flushLocked(); err != nil {
			return err
		}
		if w.frames > 1 && w.batched != nil {
			w.batched.Add(int64(w.frames))
		}
		if extra == nil && len(w.ch) == 0 {
			return nil
		}
	}
}

// flushLocked writes the staged batch to the connection. The caller
// holds wmu.
func (w *frameWriter) flushLocked() error {
	if w.timeout > 0 {
		_ = w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	// WriteTo consumes the view (and advances its elements on short
	// writes); the batch's backing array is resliced fresh per batch.
	view := net.Buffers(w.bufs)
	n, err := view.WriteTo(w.c)
	if w.bytesOut != nil {
		w.bytesOut.Add(n)
	}
	for _, lb := range w.release {
		putSmallBuf(lb.p, lb.b)
	}
	return err
}

func (w *frameWriter) loop() {
	for {
		select {
		case <-w.dead:
			return
		case <-w.wake:
		}
		w.wmu.Lock()
		err := w.drainLocked(nil)
		w.wmu.Unlock()
		if err != nil {
			w.fail(err)
			return
		}
	}
}
