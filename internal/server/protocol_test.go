package server

import (
	"reflect"
	"testing"
	"testing/quick"

	"placeless/internal/sig"
)

// structuredOps are the ops whose success response carries structure
// and crosses the wire as a string list (Response.List).
var structuredOps = []Op{OpStats, OpListActives, OpDescribe, OpFind}

// ackOps are the ops whose success response is the zero-payload frame.
var ackOps = []Op{OpWrite, OpAttach, OpDetach, OpAttachStatic, OpAddReference,
	OpCreateDocument, OpSubscribe, OpForwardEvent}

// Property: every Request field survives the one request layout,
// whatever the op.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, op uint8, doc, user, prop, value string, personal bool, body []byte) bool {
		in := Request{
			ID: id | 1, Op: Op(int(op) % (int(OpFind) + 1)), Doc: doc, User: user,
			Personal: personal, Property: prop, Value: value, Body: body,
		}
		in.Subscribe = in.Op == OpRead && personal
		out := *requestOverWire(t, &in)
		// An empty body tail and no body are the same bytes; normalize.
		if len(in.Body) == 0 {
			in.Body, out.Body = nil, nil
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the call ID and the string list survive each of the four
// structured responses, whatever the strings hold, and nothing else
// does; nothing but the call ID survives the ack of any other op. Err
// stays empty: a non-empty Err selects the error-frame codec, which
// carries only the string (TestV2ResponseRoundTrip); the read response
// and the push have their own layouts (FuzzProtocolV2RoundTrip).
func TestResponseRoundTripProperty(t *testing.T) {
	f := func(id uint64, op uint8, body []byte, cacheability uint8, cost int64, sg sig.Signature, list []string) bool {
		in := Response{
			ID: id, Body: body,
			Cacheability: int(cacheability % 3), CostNanos: cost, Signature: sg,
			List: list,
		}
		out := *responseOverWire(t, structuredOps[int(op)%len(structuredOps)], &in)
		want := Response{ID: id, List: list}
		if len(list) == 0 {
			want.List = nil // an empty list is an empty payload
		}
		ack := *responseOverWire(t, ackOps[int(op)%len(ackOps)], &in)
		return reflect.DeepEqual(out, want) && reflect.DeepEqual(ack, Response{ID: id})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
