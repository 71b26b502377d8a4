// Package stream holds the content plumbing that outlived the paper's
// custom streams: the Transform a property returns, and the Body a
// view's bytes travel in from the staged read to every cache above it.
//
// The paper (§2) has a content-touching active property interpose a
// custom input or output stream when getInputStream or getOutputStream
// is dispatched. Here a property returns a Transform instead: a
// function from the whole content to the whole content, which the
// document space applies to byte slices in chain order. Every
// property the repository ships was whole-content already.
package stream

import "placeless/internal/sig"

// Transform rewrites a complete document body. Implementations must
// not retain or mutate the input slice: the input may be bytes a cache
// stores and serves to other readers, or a request body a server still
// holds. A transform may return its input unchanged: the read path
// copies any result that aliases read-only bytes, and the write path
// stores such a result as it would the body no transform touched.
type Transform func([]byte) []byte

// Body is a view's bytes as the layer that holds them keeps them: Head,
// then Tail. A whole body is all Head. A body split at a shared head —
// a personal view that only appended to the cut every user's view
// begins with (a watermark banner) — has that cut's bytes as Head and
// HeadSig, set only then, their signature, so each layer can keep one
// copy of the head however many views build on it. Both parts may
// alias bytes a cache serves to other readers and must not be
// modified.
type Body struct {
	Head, Tail []byte
	HeadSig    sig.Signature
}

// Len is the body's length in bytes.
func (b Body) Len() int { return len(b.Head) + len(b.Tail) }

// Bytes returns the body as one slice: Head itself when there is no
// tail, else a fresh copy of both parts.
func (b Body) Bytes() []byte {
	if len(b.Tail) == 0 {
		return b.Head
	}
	return append(append(make([]byte, 0, b.Len()), b.Head...), b.Tail...)
}
