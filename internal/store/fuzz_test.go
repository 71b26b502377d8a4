package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"placeless/internal/sig"
)

// FuzzSegmentRoundTrip hands the segment scanner adversarial file
// contents three ways — a valid record stream mixing blobs, entries
// (one naming its head), an intermediate and an epoch with a fuzzed
// tail appended, a fuzzed prefix alone, and a valid stream with one
// fuzzed byte position mutated — and holds it to the store's safety
// contract: open never errors on corruption, never panics, every blob
// the rebuilt index serves is byte-exact under its signature, every
// entry and intermediate it returns names a blob it serves, and every
// metadata record it replays is one of the stream's own, never a
// mutated one.
func FuzzSegmentRoundTrip(f *testing.F) {
	one, two := []byte("fuzz seed record one"), []byte("fuzz seed record two")
	entries := []EntryMeta{
		{Doc: "a", User: "u", Sig: sig.Of(one), SourceSig: sig.Of(two), Gen: 2, Cost: 5},
		{Doc: "b", User: "u", Sig: sig.Of(two), Gen: 3},
		{Doc: "b", User: "v", Sig: sig.Of(two), Gen: 3, HeadSig: sig.Of(two[:9]), HeadLen: 9}, // a tail-shared entry's record
	}
	inter := IntermediateMeta{SourceSig: sig.Of(one), Fingerprint: sig.Of([]byte("chain")), Sig: sig.Of(two)}
	epochDoc, epochGen := "c", uint64(4)
	var valid []byte
	meta := func(payload []byte) {
		valid = appendRecord(valid, metaMagic, sig.Of(payload), payload)
	}
	valid = appendRecord(valid, segMagic, sig.Of(one), one)
	meta(appendMeta(nil, metaEntry, entryFields(&entries[0])))
	valid = appendRecord(valid, segMagic, sig.Of(two), two)
	meta(appendMeta(nil, metaInter, interFields(&inter)))
	meta(appendMeta(nil, metaEpoch, epochFields(&epochDoc, &epochGen)))
	meta(appendMeta(nil, metaEntry, entryFields(&entries[1])))
	last := appendMeta(nil, metaEntry, entryFields(&entries[2]))
	meta(last)
	// The last record's head signature follows its kind byte and four
	// other signatures.
	headSig := len(valid) - len(last) + 1 + 4*sig.Size

	f.Add([]byte(nil), 0)
	f.Add(valid, len(valid))
	f.Add(valid[:len(valid)-3], 5)
	f.Add([]byte("PLSG garbage that is not a record"), 2)
	f.Add(bytes.Repeat([]byte{0x00}, 64), 10)
	f.Add(append(append([]byte(nil), valid...), 'P', 'L', 'S', 'G', 0xFF, 0xFF, 0xFF, 0x7F), 7)
	f.Add(valid, len(valid)-3)       // inside the last entry's user
	f.Add(valid, headSig+sig.Size/2) // inside its head's signature

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
			// Every replayed metadata record is one the stream holds,
			// and names a blob that is served.
			s.mu.Lock()
			replayed := make([]EntryMeta, 0, len(s.entries))
			for _, e := range s.entries {
				replayed = append(replayed, e)
			}
			s.mu.Unlock()
			for _, e := range replayed {
				if !slices.Contains(entries, e) {
					t.Fatalf("%s: replayed an entry the stream does not hold: %+v", name, e)
				}
				if got, ok := s.GetEntry(e.Doc, e.User); !ok || got != e {
					t.Fatalf("%s: entry %s/%s replayed but not returned", name, e.Doc, e.User)
				}
				if _, ok := s.GetBlob(e.Sig); !ok {
					t.Fatalf("%s: entry %s/%s names a blob that is not served", name, e.Doc, e.User)
				}
			}
			s.mu.Lock()
			inters := make([]IntermediateMeta, 0, len(s.inters))
			for _, im := range s.inters {
				inters = append(inters, im)
			}
			s.mu.Unlock()
			for _, im := range inters {
				if im != inter {
					t.Fatalf("%s: replayed an intermediate the stream does not hold: %+v", name, im)
				}
				if _, ok := s.GetBlob(im.Sig); !ok {
					t.Fatalf("%s: intermediate names a blob that is not served", name)
				}
			}
			for doc, gen := range s.Epochs() {
				if doc != epochDoc || gen != epochGen {
					t.Fatalf("%s: replayed an epoch the stream does not hold: %s=%d", name, doc, gen)
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
