package docspace

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"placeless/internal/property"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// TestApplyNeverAliasesInput: whatever the transforms, apply returns
// an exact-size slice that shares no memory with its read-only input,
// so the caller may modify it while the input — which may be bytes a
// cache stores — stays as it was.
func TestApplyNeverAliasesInput(t *testing.T) {
	identity := func(b []byte) []byte { return b }
	head := func(b []byte) []byte { return b[:len(b)/2] }
	tail := func(b []byte) []byte { return b[len(b)/2:] }
	for _, tc := range []struct {
		name string
		ts   []stream.Transform
	}{
		{"empty chain", nil},
		{"identity", []stream.Transform{identity}},
		{"identity twice", []stream.Transform{identity, identity}},
		{"head", []stream.Transform{head}},
		{"tail", []stream.Transform{tail}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]byte, 0, 64)
			in = append(in, "bytes a cache may be holding"...)
			want := bytes.Clone(in)
			got := apply(in, in, tc.ts)
			if overlaps(got, in) {
				t.Fatal("the result shares memory with the input")
			}
			if cap(got) != len(got) {
				t.Fatalf("the result has %d bytes of spare capacity", cap(got)-len(got))
			}
			for i := range got {
				got[i] = 'x'
			}
			if !bytes.Equal(in, want) {
				t.Fatalf("modifying the result changed the input to %q", in)
			}
		})
	}
}

// TestApplyRunsTransformsInOrderUncopied: apply runs each transform
// once, first to last, and returns the last one's output itself.
func TestApplyRunsTransformsInOrderUncopied(t *testing.T) {
	var calls []string
	var last []byte
	step := func(name string) stream.Transform {
		return func(b []byte) []byte {
			calls = append(calls, name)
			last = append(append(make([]byte, 0, len(b)+len(name)), b...), name...)
			return last
		}
	}
	in := []byte("x")
	got := apply(in, in, []stream.Transform{step("-base"), step("-ref")})
	if string(got) != "x-base-ref" || fmt.Sprint(calls) != "[-base -ref]" {
		t.Fatalf("got %q after %v", got, calls)
	}
	if &got[0] != &last[0] {
		t.Fatal("the last transform's output was copied")
	}
}

// suffix returns a transform that appends s to a copy of its input.
func suffix(s string) stream.Transform {
	return func(b []byte) []byte { return append(append([]byte{}, b...), s...) }
}

// TestApplyCompositionProperty: for any content and any pair of
// transforms f, g, apply over [f, g] equals g(f(content)) and leaves
// the content as it was.
func TestApplyCompositionProperty(t *testing.T) {
	fn := func(content []byte, s1, s2 string) bool {
		if len(s1) > 20 {
			s1 = s1[:20]
		}
		if len(s2) > 20 {
			s2 = s2[:20]
		}
		f, g := suffix(s1), suffix(s2)
		want := g(f(content))
		orig := bytes.Clone(content)
		got := apply(content, content, []stream.Transform{f, g})
		return bytes.Equal(got, want) && bytes.Equal(content, orig)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadsRunBaseTransformsBeforeReferenceTransforms: on both reads
// the base document's transform sees the provider's bytes and the
// reference's transform sees its output (paper Figure 2).
func TestReadsRunBaseTransformsBeforeReferenceTransforms(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("x"))
	base := &property.Transformer{Base: property.Base{PropName: "base-suffix"}, ReadTransform: suffix("-base"), MemoID: "base-suffix"}
	ref := &property.Transformer{Base: property.Base{PropName: "ref-suffix"}, ReadTransform: suffix("-ref"), MemoID: "ref-suffix"}
	if err := f.space.Attach("d", "", Universal, base); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "eyal", Personal, ref); err != nil {
		t.Fatal(err)
	}
	plain, _, err := f.space.ReadDocument("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	staged, _, _, err := f.space.ReadDocumentStaged("d", "eyal", newFakePrefixMemo())
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != "x-base-ref" || string(staged.Head) != "x-base-ref" {
		t.Fatalf("plain read %q, staged read %q; want the base transform applied before the reference transform", plain, staged.Bytes())
	}
}

// TestApplyCopiesOnlyWhatAliasesTheReadOnlyInput: the guard is against
// the read-only slice the input derives from, not the input itself —
// an owned intermediate comes back uncopied even through no further
// transform — and no content is an empty slice, not nil.
func TestApplyCopiesOnlyWhatAliasesTheReadOnlyInput(t *testing.T) {
	ro := []byte("read-only source")
	owned := bytes.ToUpper(ro)
	if got := apply(ro, owned, nil); &got[0] != &owned[0] {
		t.Fatal("an owned input was copied")
	}
	drop := func([]byte) []byte { return nil }
	if got := apply(ro, ro, []stream.Transform{drop}); got == nil || len(got) != 0 {
		t.Fatalf("no content came back as %#v, want an empty slice", got)
	}
}

// sliceProvider serves one slice as a document's content.
type sliceProvider struct{ data []byte }

func (p *sliceProvider) Name() string { return "bits:slice" }

func (p *sliceProvider) Open(*property.ReadContext) ([]byte, error) { return p.data, nil }

func (p *sliceProvider) Store(*property.WriteContext, []byte) error { return nil }

func (p *sliceProvider) ReadCurrent() ([]byte, error) { return p.data, nil }

// TestReadsHandTheProviderBytesToTheFirstTransform: the source is only
// read, so both reads hand the provider's own slice to the first
// transform, uncopied, and return a result that does not alias it.
func TestReadsHandTheProviderBytesToTheFirstTransform(t *testing.T) {
	f := newFixture(t)
	src := &sliceProvider{data: []byte("provider bytes")}
	if _, err := f.space.CreateDocument("d", "eyal", src); err != nil {
		t.Fatal(err)
	}
	var seen []byte
	spy := &property.Transformer{
		Base:          property.Base{PropName: "spy"},
		ReadTransform: func(b []byte) []byte { seen = b; return b },
		MemoID:        "identity",
	}
	if err := f.space.Attach("d", "", Universal, spy); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func() ([]byte, error){
		func() ([]byte, error) { data, _, err := f.space.ReadDocument("d", "eyal"); return data, err },
		func() ([]byte, error) {
			data, _, _, err := f.space.ReadDocumentStaged("d", "eyal", newFakePrefixMemo())
			return data.Head, err
		},
	} {
		seen = nil
		got, err := read()
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 || &seen[0] != &src.data[0] {
			t.Fatal("the first transform was handed a copy of the provider's bytes")
		}
		if string(got) != "provider bytes" || overlaps(got, src.data) {
			t.Fatalf("read %q, aliasing the provider's bytes: %v", got, overlaps(got, src.data))
		}
	}
}

// handingMemo serves every cut from one slice, the way a cache hands
// out a table blob.
type handingMemo struct{ held []byte }

func (m handingMemo) LongestPrefix(_ string, _ sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	return m.held, len(fps) - 1, true
}

func (m handingMemo) PrefixIntermediate(string, string, sig.Signature, Cut, func() ([]byte, error)) ([]byte, bool, error) {
	return m.held, true, nil
}

// TestStagedReadReturnsTheLastCutAsHanded: when no transform follows
// the last cut, the staged read's body is the store's slice itself; a
// transform after the cut that returns its input unchanged gets the
// body copied, so it never aliases the store's bytes.
func TestStagedReadReturnsTheLastCutAsHanded(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("source"))
	if err := f.space.Attach("d", "", Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	memo := handingMemo{held: []byte("SOURCE")}
	got, _, _, err := f.space.ReadDocumentStaged("d", "eyal", memo)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(got.Head) != unsafe.SliceData(memo.held) {
		t.Fatal("the last cut's bytes were copied")
	}

	identity := &property.Transformer{
		Base:          property.Base{PropName: "identity"},
		ReadTransform: func(b []byte) []byte { return b }, // no memo contract
	}
	if err := f.space.Attach("d", "eyal", Personal, identity); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = f.space.ReadDocumentStaged("d", "eyal", memo)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Head) != "SOURCE" || got.Tail != nil || overlaps(got.Head, memo.held) {
		t.Fatalf("read %q, aliasing the cut's bytes: %v", got.Bytes(), overlaps(got.Head, memo.held))
	}
}

// splitMemo serves every cut as head, then tail: the way a cache hands
// out a cut it holds tail-shared.
type splitMemo struct{ head, tail []byte }

func (m splitMemo) LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	return append(append([]byte(nil), m.head...), m.tail...), len(fps) - 1, true
}

func (m splitMemo) PrefixIntermediate(string, string, sig.Signature, Cut, func() ([]byte, error)) ([]byte, bool, error) {
	return append(append([]byte(nil), m.head...), m.tail...), true, nil
}

func (m splitMemo) body() stream.Body {
	return stream.Body{Head: m.head, Tail: m.tail, HeadSig: sig.Of(m.head)}
}

func (m splitMemo) LongestPrefixParts(_ string, _ sig.Signature, fps []sig.Signature) (stream.Body, int, bool) {
	return m.body(), len(fps) - 1, true
}

func (m splitMemo) PrefixIntermediateParts(string, string, sig.Signature, Cut, func() ([]byte, error)) (stream.Body, bool, error) {
	return m.body(), true, nil
}

// TestStagedReadJoinsASplitCutOnlyForATransform: a cut the store hands
// in two parts is the body in those parts, unjoined and with the head's
// signature, when no transform follows it; a transform after it reads
// the parts joined, and the body is then whole.
func TestStagedReadJoinsASplitCutOnlyForATransform(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("source"))
	if err := f.space.Attach("d", "", Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	memo := splitMemo{head: []byte("SOU"), tail: []byte("RCE")}
	got, _, _, err := f.space.ReadDocumentStaged("d", "eyal", memo)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(got.Head) != unsafe.SliceData(memo.head) || unsafe.SliceData(got.Tail) != unsafe.SliceData(memo.tail) || got.HeadSig != sig.Of(memo.head) {
		t.Fatalf("body %q, tail %q, head %v: not the cut's parts as handed", got.Head, got.Tail, got.HeadSig)
	}
	reverse := &property.Transformer{
		Base: property.Base{PropName: "reverse"},
		ReadTransform: func(b []byte) []byte {
			out := make([]byte, len(b))
			for i, c := range b {
				out[len(b)-1-i] = c
			}
			return out
		}, // no memo contract
	}
	if err := f.space.Attach("d", "eyal", Personal, reverse); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = f.space.ReadDocumentStaged("d", "eyal", memo)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Head) != "ECRUOS" || got.Tail != nil || !got.HeadSig.IsZero() {
		t.Fatalf("read %q with tail %q, want the whole cut reversed", got.Head, got.Tail)
	}
}
