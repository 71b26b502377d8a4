package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"placeless/internal/sig"
)

// FuzzSegmentRoundTrip hands the segment scanner adversarial file
// contents three ways — a valid record stream with a fuzzed tail
// appended, a fuzzed prefix alone, and a valid stream with one fuzzed
// byte position mutated — and holds it to the store's safety
// contract: open never errors on corruption, never panics, and every
// blob the rebuilt index serves is byte-exact under its signature.
func FuzzSegmentRoundTrip(f *testing.F) {
	var valid []byte
	for _, p := range []string{"fuzz seed record one", "fuzz seed record two"} {
		valid = appendRecord(valid, sig.Of([]byte(p)), []byte(p))
	}

	f.Add([]byte(nil), 0)
	f.Add(valid, len(valid))
	f.Add(valid[:len(valid)-3], 5)
	f.Add([]byte("PLSG garbage that is not a record"), 2)
	f.Add(bytes.Repeat([]byte{0x00}, 64), 10)
	f.Add(append(append([]byte(nil), valid...), 'P', 'L', 'S', 'G', 0xFF, 0xFF, 0xFF, 0x7F), 7)

	f.Fuzz(func(t *testing.T, tail []byte, mutate int) {
		for name, contents := range map[string][]byte{
			"raw":        tail,
			"valid+tail": append(append([]byte(nil), valid...), tail...),
			"mutated":    mutateStream(valid, mutate),
		} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), contents, 0o644); err != nil {
				t.Fatal(err)
			}
			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("%s: open errored on corrupt input: %v", name, err)
			}
			// Every indexed blob must verify end to end.
			s.mu.Lock()
			sigs := make([]sig.Signature, 0, len(s.refs))
			for sg := range s.refs {
				sigs = append(sigs, sg)
			}
			s.mu.Unlock()
			if len(sigs) != rec.Blobs {
				t.Fatalf("%s: index size %d != recovery count %d", name, len(sigs), rec.Blobs)
			}
			for _, sg := range sigs {
				payload, ok := s.GetBlob(sg)
				if !ok {
					t.Fatalf("%s: indexed blob %s unreadable", name, sg)
				}
				if sig.Of(payload) != sg {
					t.Fatalf("%s: served bytes do not match signature %s", name, sg)
				}
			}
			// The repaired segment must accept appends and round-trip.
			p := []byte("post-fuzz append")
			sg, err := s.PutBlob(p)
			if err != nil {
				t.Fatalf("%s: append after recovery: %v", name, err)
			}
			if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, p) {
				t.Fatalf("%s: append after recovery unreadable", name)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			s2, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", name, err)
			}
			if got, ok := s2.GetBlob(sg); !ok || !bytes.Equal(got, p) {
				t.Fatalf("%s: append lost across reopen", name)
			}
			s2.Close()
		}
	})
}

// mutateStream flips one byte of a copy of stream at position p
// (mod len), returning the copy; an empty stream passes through.
func mutateStream(stream []byte, p int) []byte {
	if len(stream) == 0 {
		return nil
	}
	out := append([]byte(nil), stream...)
	if p < 0 {
		p = -p
	}
	out[p%len(out)] ^= 0x40
	return out
}
