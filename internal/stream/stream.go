// Package stream holds the piece of content plumbing that outlived
// the paper's custom streams.
//
// The paper (§2) has a content-touching active property interpose a
// custom input or output stream when getInputStream or getOutputStream
// is dispatched. Here a property returns a Transform instead: a
// function from the whole content to the whole content, which the
// document space applies to byte slices in chain order. Every
// property the repository ships was whole-content already.
package stream

// Transform rewrites a complete document body. Implementations must
// not retain or mutate the input slice: the input may be bytes a cache
// stores and serves to other readers, or a request body a server still
// holds.
type Transform func([]byte) []byte
