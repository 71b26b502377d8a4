package stream

import (
	"bytes"
	"strings"
	"testing"
)

// TestCopyPooledCopiesThroughAChunk: a body larger than one chunk
// arrives whole, and the copy fetches one chunk from the pool.
func TestCopyPooledCopiesThroughAChunk(t *testing.T) {
	body := strings.Repeat("placeless ", copyChunkSize/5)
	gets, _ := PoolStats()
	var dst bytes.Buffer
	n, err := CopyPooled(&dst, strings.NewReader(body))
	if err != nil || n != int64(len(body)) || dst.String() != body {
		t.Fatalf("copied %d bytes, %v; want the %d-byte body", n, err, len(body))
	}
	if after, _ := PoolStats(); after != gets+1 {
		t.Fatalf("pool gets moved %d → %d, want one chunk per copy", gets, after)
	}
}
