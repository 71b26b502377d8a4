// Package stream holds the two pieces of content plumbing that
// outlived the paper's custom streams.
//
// The paper (§2) has a content-touching active property interpose a
// custom input or output stream when getInputStream or getOutputStream
// is dispatched. Here a property returns a Transform instead: a
// function from the whole content to the whole content, which the
// document space applies to byte slices in chain order. Every
// property the repository ships was whole-content already.
//
// CopyPooled is the other piece: the copy that streams a stored blob
// to a socket through a pooled fixed-size chunk.
package stream

import (
	"io"
	"sync"
	"sync/atomic"
)

// Transform rewrites a complete document body. Implementations must
// not retain or mutate the input slice: the input may be bytes a cache
// stores and serves to other readers, or a request body a server still
// holds.
type Transform func([]byte) []byte

// chunkPool recycles fixed-size copy chunks for CopyPooled. Chunks are
// fixed-size, so nothing ever needs dropping.
var chunkPool = sync.Pool{New: func() any {
	poolNews.Add(1)
	b := make([]byte, copyChunkSize)
	return &b
}}

// copyChunkSize is the unit CopyPooled moves bytes in: large enough to
// amortize syscalls on a segment-file → socket pump, small enough that
// an idle pool pins little memory.
const copyChunkSize = 64 << 10

// Pool activity counters, exported through PoolStats so the
// observability registry can tell whether the chunk pool is recycling
// (gets far above news).
var poolGets, poolNews atomic.Int64

// PoolStats reports cumulative chunk-pool activity: chunks fetched by
// CopyPooled, and chunks newly allocated because the pool was empty.
// The counters are process-wide, like the pool itself.
func PoolStats() (gets, news int64) {
	return poolGets.Load(), poolNews.Load()
}

// CopyPooled copies src to dst through a pooled fixed-size chunk,
// counting pool activity in PoolStats. It is io.CopyBuffer with the
// buffer's lifetime managed here, used by the durable store's blob
// streaming. dst is shielded from io.CopyBuffer's ReaderFrom
// delegation so the pooled chunk is actually used (the delegation
// would fall back to an internal allocation for a non-file src
// anyway).
func CopyPooled(dst io.Writer, src io.Reader) (int64, error) {
	poolGets.Add(1)
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	return io.CopyBuffer(writerOnly{dst}, src, *bp)
}

// writerOnly hides any ReadFrom/WriteTo fast paths dst may have, so
// io.CopyBuffer keeps control of the copy buffer.
type writerOnly struct{ io.Writer }
