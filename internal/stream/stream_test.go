package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

func upper(b []byte) []byte { return bytes.ToUpper(b) }

func suffix(s string) Transform {
	return func(b []byte) []byte { return append(append([]byte{}, b...), []byte(s)...) }
}

func TestBytesReaderRoundTrip(t *testing.T) {
	got, err := ReadAllAndClose(BytesReader([]byte("hello")))
	if err != nil || string(got) != "hello" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestWholeInputTransforms(t *testing.T) {
	r := ChainInput(BytesReader([]byte("abc")), WholeInput(upper))
	got, err := ReadAllAndClose(r)
	if err != nil || string(got) != "ABC" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestChainInputOrder(t *testing.T) {
	// First wrapper is closest to the base: with suffix transforms
	// the innermost suffix is appended first.
	r := ChainInput(BytesReader([]byte("x")), WholeInput(suffix("-base")), WholeInput(suffix("-ref")))
	got, _ := ReadAllAndClose(r)
	if string(got) != "x-base-ref" {
		t.Fatalf("got %q, want base transform applied before reference transform", got)
	}
}

func TestChainInputSkipsNil(t *testing.T) {
	r := ChainInput(BytesReader([]byte("a")), nil, WholeInput(upper), nil)
	got, _ := ReadAllAndClose(r)
	if string(got) != "A" {
		t.Fatalf("got %q", got)
	}
}

func TestChainOutputOrder(t *testing.T) {
	// First wrapper is outermost: application bytes hit it first, so
	// its suffix lands before the later wrappers' suffixes... no:
	// outermost transform runs first, producing x-ref, then the
	// inner (base-side) transform sees that and appends -base.
	var sink BufferCloser
	w := ChainOutput(&sink, WholeOutput(suffix("-ref")), WholeOutput(suffix("-base")))
	io.WriteString(w, "x")
	w.Close()
	if got := sink.String(); got != "x-ref-base" {
		t.Fatalf("got %q, want reference transform applied before base transform", got)
	}
	if !sink.Closed {
		t.Fatal("chain did not propagate Close to the sink")
	}
}

func TestWholeOutputWriteAfterClose(t *testing.T) {
	var sink BufferCloser
	w := ChainOutput(&sink, WholeOutput(upper))
	w.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Write after Close: err = %v, want ErrClosedPipe", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

type failReader struct{ closed bool }

func (f *failReader) Read([]byte) (int, error) { return 0, errors.New("boom") }
func (f *failReader) Close() error             { f.closed = true; return nil }

func TestWholeInputPropagatesError(t *testing.T) {
	fr := &failReader{}
	r := ChainInput(fr, WholeInput(upper))
	if _, err := io.ReadAll(r); err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	// Error is sticky.
	if _, err := r.Read(make([]byte, 1)); err == nil {
		t.Fatal("second read did not return the stored error")
	}
	r.Close()
	if !fr.closed {
		t.Fatal("Close not propagated to source")
	}
}

func TestBufferCloserOnClose(t *testing.T) {
	var got []byte
	b := &BufferCloser{OnClose: func(d []byte) { got = append([]byte{}, d...) }}
	io.WriteString(b, "final")
	b.Close()
	b.Close()
	if string(got) != "final" {
		t.Fatalf("OnClose data = %q", got)
	}
}

// Property: for any content and any pair of whole transforms f, g,
// reading through ChainInput(base, Whole(f), Whole(g)) equals g(f(content)).
func TestChainCompositionProperty(t *testing.T) {
	fn := func(content []byte, s1, s2 string) bool {
		if len(s1) > 20 {
			s1 = s1[:20]
		}
		if len(s2) > 20 {
			s2 = s2[:20]
		}
		f, g := suffix(s1), suffix(s2)
		r := ChainInput(BytesReader(content), WholeInput(f), WholeInput(g))
		got, err := ReadAllAndClose(r)
		return err == nil && bytes.Equal(got, g(f(content)))
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: write path and read path produce the same composed result
// for matching chains (reference-then-base on write mirrors
// base-then-reference on read for the same logical ordering).
func TestWriteReadSymmetryProperty(t *testing.T) {
	fn := func(content []byte) bool {
		var sink BufferCloser
		w := ChainOutput(&sink, WholeOutput(upper))
		w.Write(content)
		w.Close()
		r := ChainInput(BytesReader(content), WholeInput(upper))
		got, err := ReadAllAndClose(r)
		return err == nil && bytes.Equal(got, sink.Bytes())
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadAllNeverAliasesInput: whatever the chain over a BytesReader,
// ReadAllAndClose returns an exact-size slice that shares no memory
// with the reader's input, so the caller may modify it while the input
// — which may be bytes a cache stores — stays as it was.
func TestReadAllNeverAliasesInput(t *testing.T) {
	identity := func(b []byte) []byte { return b }
	head := func(b []byte) []byte { return b[:len(b)/2] }
	tail := func(b []byte) []byte { return b[len(b)/2:] }
	// tap is a wrapper that is not a WholeInput: the chain is drained.
	tap := func(r io.ReadCloser) io.ReadCloser { return NopReadCloser(io.TeeReader(r, io.Discard)) }
	for _, tc := range []struct {
		name     string
		wrappers []InputWrapper
	}{
		{"empty chain", nil},
		{"identity", []InputWrapper{WholeInput(identity)}},
		{"identity twice", []InputWrapper{WholeInput(identity), WholeInput(identity)}},
		{"head", []InputWrapper{WholeInput(head)}},
		{"tail", []InputWrapper{WholeInput(tail)}},
		{"identity under a tap", []InputWrapper{WholeInput(identity), tap}},
		{"tap under identity", []InputWrapper{tap, WholeInput(identity)}},
		{"tap alone", []InputWrapper{tap}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := make([]byte, 0, 64)
			in = append(in, "bytes a cache may be holding"...)
			want := bytes.Clone(in)
			got, err := ReadAllAndClose(ChainInput(BytesReader(in), tc.wrappers...))
			if err != nil {
				t.Fatal(err)
			}
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

// TestReadAllAppliesWholeTransformsToSlices: a chain of WholeInput
// transforms over a BytesReader runs each transform once on the slices,
// innermost first, and returns the last one's output itself — no drain,
// no copy.
func TestReadAllAppliesWholeTransformsToSlices(t *testing.T) {
	var calls []string
	var last []byte
	step := func(name string) Transform {
		return func(b []byte) []byte {
			calls = append(calls, name)
			last = append(append(make([]byte, 0, len(b)+len(name)), b...), name...)
			return last
		}
	}
	got, err := ReadAllAndClose(ChainInput(BytesReader([]byte("x")), WholeInput(step("-base")), WholeInput(step("-ref"))))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x-base-ref" || fmt.Sprint(calls) != "[-base -ref]" {
		t.Fatalf("got %q after %v", got, calls)
	}
	if &got[0] != &last[0] {
		t.Fatal("the last transform's output was copied")
	}
}

// TestReadAllAfterPartialRead: a stream something has already read from
// is drained from where it stands, not restarted, by both readers.
func TestReadAllAfterPartialRead(t *testing.T) {
	for _, read := range []func(io.ReadCloser) ([]byte, error){ReadAllAndClose, ReadOnlyAndClose} {
		for _, r := range []io.ReadCloser{
			BytesReader([]byte("abc")),
			ChainInput(BytesReader([]byte("abc")), WholeInput(upper)),
		} {
			if _, err := r.Read(make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			got, err := read(r)
			if err != nil || !bytes.EqualFold(got, []byte("bc")) {
				t.Fatalf("got %q, %v; want the two unread bytes", got, err)
			}
		}
	}
}

// TestReadOnlyHandsBackTheSlice: an unread BytesReader's slice comes
// back as it is; a chain over it is still read through ReadAllAndClose.
func TestReadOnlyHandsBackTheSlice(t *testing.T) {
	in := []byte("source bytes")
	got, err := ReadOnlyAndClose(BytesReader(in))
	if err != nil || &got[0] != &in[0] || len(got) != len(in) {
		t.Fatalf("got %q, %v; want the reader's own slice", got, err)
	}
	got, err = ReadOnlyAndClose(ChainInput(BytesReader(in), WholeInput(upper)))
	if err != nil || string(got) != "SOURCE BYTES" || overlaps(got, in) {
		t.Fatalf("got %q, %v; want the transform's own output", got, err)
	}
}
