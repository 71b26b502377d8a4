package store

import (
	"encoding/binary"
	"time"

	"placeless/internal/sig"
)

// Metadata records: a "PLMT" payload is a kind byte, then its kind's
// fields in the order listed below: a signature as sig.Size raw bytes,
// an integer as a uvarint, a string as a uvarint length and its bytes.
// Nothing is optional (a whole entry's head is zero). A payload that is
// not exactly one record of a known kind, such as the JSON an older
// binary wrote, is skipped on replay.
const metaEntry, metaInter, metaEpoch byte = 1, 2, 3

func entryFields(e *EntryMeta) []any { return entryLayout(e, &e.Doc, &e.User) }

// entryLayout is an entry record's fields, with doc and user (a
// *string or a *[]byte each) in the places of Doc and User.
func entryLayout(e *EntryMeta, doc, user any) []any {
	return []any{&e.Sig, &e.SourceSig, &e.UniversalFP, &e.PersonalFP, &e.HeadSig, &e.Gen, &e.Cost, &e.HeadLen, doc, user}
}

func interFields(im *IntermediateMeta) []any {
	return []any{&im.SourceSig, &im.Fingerprint, &im.Sig}
}

func epochFields(doc *string, gen *uint64) []any { return []any{gen, doc} }

// appendMeta appends the payload of a record of kind holding fields.
func appendMeta(b []byte, kind byte, fields []any) []byte {
	b = append(b, kind)
	for _, f := range fields {
		switch f := f.(type) {
		case *sig.Signature:
			b = append(b, f[:]...)
		case *uint64:
			b = binary.AppendUvarint(b, *f)
		case *time.Duration:
			b = binary.AppendUvarint(b, uint64(*f))
		case *int:
			b = binary.AppendUvarint(b, uint64(*f))
		case *string:
			b = append(binary.AppendUvarint(b, uint64(len(*f))), *f...)
		}
	}
	return b
}

// decodeMeta fills fields from p and reports whether p held exactly
// them. Strings are copied out, since the scan reuses p's buffer; a
// []byte is left aliasing p, for the caller to copy.
func decodeMeta(p []byte, fields []any) bool {
	for _, f := range fields {
		if f, ok := f.(*sig.Signature); ok {
			if len(p) < sig.Size {
				return false
			}
			*f, p = sig.Signature(p), p[sig.Size:]
			continue
		}
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return false
		}
		p = p[n:]
		switch f := f.(type) {
		case *uint64:
			*f = v
		case *time.Duration:
			*f = time.Duration(v)
		case *int:
			*f = int(v)
		case *string:
			if v > uint64(len(p)) {
				return false
			}
			*f, p = string(p[:v]), p[v:]
		case *[]byte:
			if v > uint64(len(p)) {
				return false
			}
			*f, p = p[:v:v], p[v:]
		}
	}
	return len(p) == 0
}

// replayMeta applies one metadata record read back from a segment:
// latest wins per key, and an epoch only ever rises. An entry's key is
// built once, and its Doc and User are substrings of it.
func (s *Store) replayMeta(payload []byte) {
	if len(payload) == 0 {
		return
	}
	kind, p := payload[0], payload[1:]
	var e EntryMeta
	var eDoc, eUser []byte
	var im IntermediateMeta
	var doc string
	var gen uint64
	switch {
	case kind == metaEntry && decodeMeta(p, entryLayout(&e, &eDoc, &eUser)):
		k := entryKey(string(eDoc), string(eUser))
		e.Doc, e.User = k[:len(eDoc)], k[len(eDoc)+1:]
		s.entries[k] = e
	case kind == metaInter && decodeMeta(p, interFields(&im)):
		s.inters[interKey{im.SourceSig, im.Fingerprint}] = im
	case kind == metaEpoch && decodeMeta(p, epochFields(&doc, &gen)) && gen > s.epochs[doc]:
		s.epochs[doc] = gen
	}
}
