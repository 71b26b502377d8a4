package property

import (
	"bytes"
	"compress/flate"
	"io"
	"time"
)

// NewCompressor returns a storage-compression property: content is
// deflate-compressed on the write path and decompressed on the read
// path, so the repository holds compressed bytes while every user sees
// plain content. It belongs on the base document (universal) — a
// per-reference compressor would corrupt other users' views.
//
// Read-path decompression of content that is not valid deflate (e.g.
// pre-existing content from before the property was attached) is
// passed through unchanged, so attaching the property to a live
// document is safe: the first write-through converts it.
func NewCompressor(level int, cost time.Duration) *Transformer {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		level = flate.DefaultCompression
	}
	compress := func(b []byte) []byte {
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, level)
		if err != nil {
			return b
		}
		if _, err := w.Write(b); err != nil {
			return b
		}
		if err := w.Close(); err != nil {
			return b
		}
		return buf.Bytes()
	}
	decompress := func(b []byte) []byte {
		r := flate.NewReader(bytes.NewReader(b))
		out, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			// Not deflate data: pass through (pre-attachment content).
			return b
		}
		return out
	}
	return &Transformer{
		Base:           Base{PropName: "compress"},
		ReadTransform:  decompress,
		WriteTransform: compress,
		ExecCost:       cost,
		Version:        1,
	}
}
