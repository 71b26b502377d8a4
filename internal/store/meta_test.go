package store

import (
	"fmt"
	"testing"
	"time"

	"placeless/internal/sig"
)

// TestMetaPayloadIsExactlyOneRecord: each kind's payload replays as
// the record it encodes, and nothing else does — not a strict prefix
// of one (an empty payload and a bare kind byte among them), not one
// with a trailing byte, not an unknown kind and not the JSON an older
// store wrote. None of them panics.
func TestMetaPayloadIsExactlyOneRecord(t *testing.T) {
	e := EntryMeta{
		Doc: "doc", User: "user", Sig: sig.Of([]byte("view")),
		SourceSig: sig.Of([]byte("source")), UniversalFP: sig.Of([]byte("u")), PersonalFP: sig.Of([]byte("p")),
		Gen: 300, Cost: 5 * time.Millisecond, HeadSig: sig.Of([]byte("cut")), HeadLen: 200,
	}
	im := IntermediateMeta{SourceSig: e.SourceSig, Fingerprint: e.UniversalFP, Sig: e.HeadSig}
	oldCost := time.Second
	fresh := func() *Store {
		return &Store{entries: make(map[string]EntryMeta), inters: make(map[interKey]IntermediateMeta), epochs: make(map[string]uint64)}
	}
	kinds := []struct {
		name     string
		payload  []byte
		replayed func(*Store) bool
	}{
		{"entry", appendMeta(nil, metaEntry, entryFields(&e)), func(s *Store) bool { return len(s.entries) == 1 && s.entries[entryKey(e.Doc, e.User)] == e }},
		{"intermediate", appendMeta(nil, metaInter, interFields(&im)), func(s *Store) bool {
			return len(s.inters) == 1 && s.inters[interKey{im.SourceSig, im.Fingerprint}] == im
		}},
		{"epoch", appendMeta(nil, metaEpoch, epochFields(&e.Doc, &e.Gen)), func(s *Store) bool { return len(s.epochs) == 1 && s.epochs[e.Doc] == e.Gen }},
	}
	nothing := map[string][]byte{
		"unknown kind": append([]byte{metaEpoch + 1}, kinds[2].payload[1:]...),
		"zero kind":    append([]byte{0}, kinds[2].payload[1:]...),
		"JSON":         jsonEraPayloads(t, e, im, e.Gen)[0],
		// A cut record as binaries that still wrote its cost laid it out:
		// skipped, and the cut recomputed once.
		"intermediate with a cost": appendMeta(nil, metaInter, append(interFields(&im), &oldCost)),
	}
	for _, k := range kinds {
		s := fresh()
		s.replayMeta(k.payload)
		if !k.replayed(s) || len(s.entries)+len(s.inters)+len(s.epochs) != 1 {
			t.Fatalf("%s: replayed %+v %+v %v, want the one record", k.name, s.entries, s.inters, s.epochs)
		}
		for n := 0; n < len(k.payload); n++ {
			nothing[fmt.Sprintf("%s cut at %d", k.name, n)] = k.payload[:n]
		}
		nothing[k.name+" and a byte"] = append(k.payload[:len(k.payload):len(k.payload)], 0)
	}
	for name, p := range nothing {
		s := fresh()
		s.replayMeta(p)
		if len(s.entries)+len(s.inters)+len(s.epochs) != 0 {
			t.Errorf("%s: replayed %+v %+v %v, want nothing", name, s.entries, s.inters, s.epochs)
		}
	}
}

// BenchmarkOpenReplay opens a store of 64 blobs, 8192 entry records —
// 64 documents' views for 128 users, half of them naming a head — and
// 64 epochs: the scan-on-open a restarted origin pays before it serves.
func BenchmarkOpenReplay(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	blobs := make([]sig.Signature, 64)
	for i := range blobs {
		if blobs[i], err = s.PutBlob([]byte(fmt.Sprintf("view %d of a document, kept on disk", i))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 8192; i++ {
		doc := fmt.Sprintf("doc-%02d", i%64)
		e := EntryMeta{
			Doc: doc, User: fmt.Sprintf("user-%03d", i/64), Sig: blobs[i%64],
			SourceSig: sig.Of([]byte(doc)), UniversalFP: sig.Of([]byte("universal")), PersonalFP: sig.Of([]byte(fmt.Sprint(i))),
			Gen: 1, Cost: time.Duration(i) * time.Microsecond,
		}
		if i%2 == 1 {
			e.HeadSig, e.HeadLen = blobs[(i+1)%64], 12
		}
		if err := s.PutEntry(e); err != nil {
			b.Fatal(err)
		}
	}
	for i := range blobs {
		if err := s.AppendEpoch(fmt.Sprintf("doc-%02d", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rec, err := Open(dir, Options{})
		if err != nil || rec.Entries != 8192 || rec.EpochDocs != 64 {
			b.Fatalf("open: %+v, %v", rec, err)
		}
		s.Close()
	}
}
