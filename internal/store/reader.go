package store

import (
	"io"

	"placeless/internal/sig"
	"placeless/internal/stream"
)

// BlobReader streams one blob's payload bytes out of a segment file.
// It reads through the segment's shared *os.File with ReadAt (via
// io.SectionReader), so concurrent streams — and the store's own
// appends to the active segment — never race on a file offset.
//
// BlobReader implements io.WriterTo, which io.Copy (and the wire's
// zero-copy serve path) prefers: WriteTo pumps the section through a
// pooled fixed-size chunk instead of allocating a copy buffer per
// stream. Unlike GetBlob, streaming does not re-verify the content
// signature per read — it relies on the CRC + signature verification
// the open-time segment scan already performed. Callers that must
// prove the bytes (the cache's disk-promotion path) keep using
// GetBlob.
type BlobReader struct {
	sr *io.SectionReader
}

// OpenBlob returns a reader over the payload stored under sg. The
// handle stays valid until the store is closed; it does not pin any
// memory beyond the section bounds.
func (s *Store) OpenBlob(sg sig.Signature) (*BlobReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, f, err := s.locateLocked(sg)
	if err != nil {
		return nil, err
	}
	return &BlobReader{sr: io.NewSectionReader(f, ref.offset, ref.size)}, nil
}

// Size returns the blob's payload length in bytes.
func (b *BlobReader) Size() int64 { return b.sr.Size() }

// Read implements io.Reader.
func (b *BlobReader) Read(p []byte) (int, error) { return b.sr.Read(p) }

// WriteTo implements io.WriterTo through the stream package's pooled
// chunk pump.
func (b *BlobReader) WriteTo(w io.Writer) (int64, error) {
	return stream.CopyPooled(w, b.sr)
}
