package server

import (
	"reflect"
	"testing"
	"testing/quick"

	"placeless/internal/sig"
)

// coldOps are the ops whose Request/Response structs cross the wire as
// a gob payload inside a frame (flagGob) rather than a hand-written
// codec.
var coldOps = []Op{OpAttach, OpDetach, OpAttachStatic, OpAddReference, OpCreateDocument,
	OpForwardEvent, OpStats, OpListActives, OpDescribe, OpFind}

// Property: every Request field survives the gob-in-frame payload the
// cold ops ride in.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, op uint8, doc, user, prop, value string, personal bool, body []byte) bool {
		in := Request{
			ID: id | 1, Op: coldOps[int(op)%len(coldOps)], Doc: doc, User: user,
			Personal: personal, Property: prop, Value: value, Body: body,
		}
		out := *requestOverWire(t, &in)
		// gob encodes empty slices and nil identically; normalize.
		if len(in.Body) == 0 {
			in.Body, out.Body = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every exported Response field survives the gob-in-frame
// payload. Err stays empty: a non-empty Err selects the error-frame
// codec, which carries only the string (TestV2ResponseRoundTrip).
func TestResponseRoundTripProperty(t *testing.T) {
	f := func(id uint64, op uint8, body []byte, cacheability uint8, cost int64, sg sig.Signature, actives []string, text string) bool {
		in := Response{
			ID: id, Body: body,
			Cacheability: int(cacheability % 3), CostNanos: cost, Signature: sg,
			Actives: actives, Text: text,
		}
		out := *responseOverWire(t, coldOps[int(op)%len(coldOps)], &in)
		if len(in.Body) == 0 {
			in.Body, out.Body = nil, nil
		}
		if len(in.Actives) == 0 {
			in.Actives, out.Actives = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
