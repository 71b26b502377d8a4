// Package stream implements the custom input/output stream mechanism
// that active properties use to intercept document content.
//
// Per the paper (§2), an active property interested in content
// interposes a custom stream when the getInputStream or
// getOutputStream event is dispatched: it wraps the stream produced by
// the previous element in the calling chain and hands the wrapped
// stream to the next, so properties that modify content form a chain
// of custom streams, each operating on the bytes that flow through.
//
// This package provides the chain plumbing plus the whole-content
// transform wrappers the standard property library is built from. A
// property that needs anything else — a streaming transform, an
// observation tap — supplies its own InputWrapper or OutputWrapper.
package stream

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"
)

// bufPool recycles scratch buffers for whole-content staging on the
// miss path (drain-then-transform readers, whole-content writers,
// ReadAllAndClose). Buffers that grew past poolBufMax are dropped
// instead of pooled so one huge document can't pin memory.
var bufPool = sync.Pool{New: func() any { poolNews.Add(1); return new(bytes.Buffer) }}

// poolBufMax caps the capacity of buffers returned to bufPool.
const poolBufMax = 1 << 20

// Pool activity counters, exported through PoolStats so the
// observability registry can tell whether the staging pool is actually
// recycling (gets far above news) or thrashing on oversized documents
// (drops climbing).
var poolGets, poolNews, poolDrops atomic.Int64

// PoolStats reports cumulative scratch-pool activity: buffers fetched,
// buffers newly allocated because the pool was empty, and oversized
// buffers dropped instead of returned. The counters are process-wide,
// like the pool itself.
func PoolStats() (gets, news, drops int64) {
	return poolGets.Load(), poolNews.Load(), poolDrops.Load()
}

// getBuf fetches an empty scratch buffer from the pool.
func getBuf() *bytes.Buffer {
	poolGets.Add(1)
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuf returns a scratch buffer to the pool unless it is oversized.
// Callers must not retain any slice aliasing the buffer's storage.
func putBuf(b *bytes.Buffer) {
	if b.Cap() > poolBufMax {
		poolDrops.Add(1)
		return
	}
	bufPool.Put(b)
}

// chunkPool recycles fixed-size copy chunks for CopyPooled — the same
// recycling discipline as the staging pool, extended to the disk→wire
// copy path. Chunks are fixed-size, so nothing ever needs dropping.
var chunkPool = sync.Pool{New: func() any {
	poolNews.Add(1)
	b := make([]byte, copyChunkSize)
	return &b
}}

// copyChunkSize is the unit CopyPooled moves bytes in: large enough to
// amortize syscalls on a segment-file → socket pump, small enough that
// an idle pool pins little memory.
const copyChunkSize = 64 << 10

// CopyPooled copies src to dst through a pooled fixed-size chunk,
// counting pool activity in PoolStats. It is io.CopyBuffer with the
// buffer's lifetime managed here — the copy path analogue of
// drainToOwned, used by the durable store's blob streaming. dst is
// shielded from io.CopyBuffer's ReaderFrom delegation so the pooled
// chunk is actually used (the delegation would fall back to an
// internal allocation for a non-file src anyway).
func CopyPooled(dst io.Writer, src io.Reader) (int64, error) {
	poolGets.Add(1)
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	return io.CopyBuffer(writerOnly{dst}, src, *bp)
}

// writerOnly hides any ReadFrom/WriteTo fast paths dst may have, so
// io.CopyBuffer keeps control of the copy buffer.
type writerOnly struct{ io.Writer }

// drainToOwned drains r into a pooled scratch buffer and returns an
// exact-size copy the caller owns outright; the scratch storage goes
// back to the pool. This trades one copy for eliminating io.ReadAll's
// growth reallocations on every miss.
func drainToOwned(r io.Reader) ([]byte, error) {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return exactCopy(buf.Bytes()), nil
}

// exactCopy returns a copy of b whose capacity is its length.
func exactCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Transform rewrites a complete document body. Implementations must
// not retain or mutate the input slice: the input may be bytes a cache
// stores and serves to other readers.
type Transform func([]byte) []byte

// InputWrapper wraps a read stream; it is the unit of composition on
// the read path. A property contributes one InputWrapper per
// getInputStream dispatch.
type InputWrapper func(io.ReadCloser) io.ReadCloser

// OutputWrapper wraps a write stream; it is the unit of composition on
// the write path.
type OutputWrapper func(io.WriteCloser) io.WriteCloser

// ChainInput applies wrappers to base in order: the first wrapper is
// closest to the base stream (executes first on the data), matching
// the paper's rule that on the read path base-document properties run
// before reference properties.
func ChainInput(base io.ReadCloser, wrappers ...InputWrapper) io.ReadCloser {
	r := base
	for _, w := range wrappers {
		if w != nil {
			r = w(r)
		}
	}
	return r
}

// ChainOutput applies wrappers to base in order: the first wrapper is
// outermost (sees application bytes first), matching the paper's rule
// that on the write path reference properties run before base
// properties.
func ChainOutput(base io.WriteCloser, wrappers ...OutputWrapper) io.WriteCloser {
	w := base
	for i := len(wrappers) - 1; i >= 0; i-- {
		if wrappers[i] != nil {
			w = wrappers[i](w)
		}
	}
	return w
}

// nopReadCloser adapts a Reader to ReadCloser.
type nopReadCloser struct{ io.Reader }

func (nopReadCloser) Close() error { return nil }

// NopReadCloser wraps r with a no-op Close.
func NopReadCloser(r io.Reader) io.ReadCloser { return nopReadCloser{r} }

// BytesReader serves b as a read stream. It never modifies b, and
// ReadAllAndClose recognizes it beneath a chain of WholeInput wrappers
// (see there).
func BytesReader(b []byte) io.ReadCloser {
	r := &bytesReader{b: b}
	r.Reset(b)
	return r
}

// bytesReader is BytesReader's stream; b is the slice it serves.
type bytesReader struct {
	bytes.Reader
	b []byte
}

func (*bytesReader) Close() error { return nil }

// wholeReader lazily drains its source, applies a Transform once, and
// serves the result.
type wholeReader struct {
	src io.ReadCloser
	f   Transform
	buf *bytes.Reader
	err error
}

// WholeInput returns an InputWrapper applying f to the complete
// content read from the wrapped stream. The source is drained on the
// first Read, so chains of WholeInput wrappers apply their transforms
// innermost-first.
func WholeInput(f Transform) InputWrapper {
	return func(src io.ReadCloser) io.ReadCloser {
		return &wholeReader{src: src, f: f}
	}
}

func (w *wholeReader) Read(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.buf == nil {
		// The drained copy is owned, so the transform receives bytes
		// it may return as-is without aliasing pooled storage.
		data, err := drainToOwned(w.src)
		if err != nil {
			w.err = err
			return 0, err
		}
		w.buf = bytes.NewReader(w.f(data))
	}
	return w.buf.Read(p)
}

func (w *wholeReader) Close() error { return w.src.Close() }

// wholeWriter buffers all writes in a pooled buffer and applies a
// Transform when closed.
type wholeWriter struct {
	dst    io.WriteCloser
	f      Transform
	buf    *bytes.Buffer
	closed bool
}

// WholeOutput returns an OutputWrapper that buffers everything written
// and, on Close, applies f and forwards the result to the wrapped
// stream before closing it.
func WholeOutput(f Transform) OutputWrapper {
	return func(dst io.WriteCloser) io.WriteCloser {
		return &wholeWriter{dst: dst, f: f, buf: getBuf()}
	}
}

func (w *wholeWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *wholeWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	// The transform must not retain its input, and dst.Write must not
	// retain p (io.Writer contract), so the buffer can be pooled once
	// the write returns. The transform's *output* may alias its input,
	// so the Write must complete before putBuf.
	out := w.f(w.buf.Bytes())
	if _, err := w.dst.Write(out); err != nil {
		putBuf(w.buf)
		w.dst.Close()
		return err
	}
	putBuf(w.buf)
	return w.dst.Close()
}

// BufferCloser is an in-memory WriteCloser that records whether Close
// was called; the write-path terminal used by repositories and tests.
type BufferCloser struct {
	bytes.Buffer
	// Closed reports whether Close has been called.
	Closed bool
	// OnClose, if non-nil, runs once with the final contents when
	// the stream is closed.
	OnClose func(data []byte)
}

// Close implements io.Closer.
func (b *BufferCloser) Close() error {
	if !b.Closed {
		b.Closed = true
		if b.OnClose != nil {
			b.OnClose(b.Bytes())
		}
	}
	return nil
}

// ReadAllAndClose drains r, closes it, and returns the content, which
// the caller owns: it never shares memory with a BytesReader's input.
//
// A chain of WholeInput wrappers over an unread BytesReader — what a
// miss runs its transforms through — is not streamed at all: the
// transforms are applied straight to the slices, innermost first, and
// the last one's output is returned as it is, unless it shares memory
// with the reader's input (an empty chain, an identity transform, a
// sub-slice), in which case it is copied to an exact-size slice. Any
// other stream is drained through a pooled buffer into an exact-size
// copy.
func ReadAllAndClose(r io.ReadCloser) ([]byte, error) {
	var data []byte
	var err error
	if in, out, ok := applyWhole(r); ok {
		if data = out; overlaps(out, in) {
			data = exactCopy(out)
		} else if data == nil {
			data = []byte{} // what a drain returns for no content
		}
	} else {
		data, err = drainToOwned(r)
	}
	cerr := r.Close()
	if err == nil {
		err = cerr
	}
	return data, err
}

// ReadOnlyAndClose is ReadAllAndClose for a caller that only reads the
// content and keeps none of it past its own return: an unread
// BytesReader's slice comes back as it is, uncopied.
func ReadOnlyAndClose(r io.ReadCloser) ([]byte, error) {
	if x, ok := r.(*bytesReader); ok && x.Len() == len(x.b) {
		return x.b, r.Close()
	}
	return ReadAllAndClose(r)
}

// applyWhole applies the transforms of a chain of unread WholeInput
// wrappers over an unread BytesReader to the reader's slice, returning
// that input and the chain's output; ok is false, and nothing has run,
// for any other stream.
func applyWhole(r io.Reader) (in, out []byte, ok bool) {
	switch x := r.(type) {
	case *bytesReader:
		if x.Len() != len(x.b) {
			return nil, nil, false
		}
		return x.b, x.b, true
	case *wholeReader:
		if x.buf != nil || x.err != nil {
			return nil, nil, false
		}
		if in, out, ok = applyWhole(x.src); ok {
			out = x.f(out)
		}
		return in, out, ok
	}
	return nil, nil, false
}

// overlaps reports whether x and y share any memory up to their
// capacities.
func overlaps(x, y []byte) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	x, y = x[:cap(x)], y[:cap(y)]
	return uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}
