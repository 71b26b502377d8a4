package property

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/event"
	"placeless/internal/stream"
)

// run applies t to content; a nil transform leaves content alone.
func run(t stream.Transform, content []byte) []byte {
	if t == nil {
		return content
	}
	return t(content)
}

// runRead executes a property's read transform over content and
// returns the output plus the context state.
func runRead(t *testing.T, p Active, content []byte) ([]byte, *ReadContext) {
	t.Helper()
	rc := &ReadContext{Doc: "d", User: "u", Now: epoch, Sleep: func(time.Duration) {}}
	return run(p.WrapInput(rc), content), rc
}

// runWrite executes a property's write transform over content.
func runWrite(t *testing.T, p Active, content []byte) []byte {
	t.Helper()
	wc := &WriteContext{Doc: "d", User: "u", Now: epoch, Sleep: func(time.Duration) {}}
	return run(p.WrapOutput(wc), content)
}

func TestSpellCorrectorFixesKnownTypos(t *testing.T) {
	sc := NewSpellCorrector(0)
	out, _ := runRead(t, sc, []byte("teh paper was recieve'd; Teh adress occured"))
	got := string(out)
	for _, bad := range []string{"teh", "Teh", "recieve", "adress", "occured"} {
		if strings.Contains(got, bad) {
			t.Errorf("output still contains %q: %s", bad, got)
		}
	}
	if !strings.Contains(got, "the paper") || !strings.Contains(got, "The address") {
		t.Errorf("corrections missing or capitalization lost: %s", got)
	}
}

func TestSpellCorrectorOnWritePath(t *testing.T) {
	sc := NewSpellCorrector(0)
	got := runWrite(t, sc, []byte("teh draft"))
	if string(got) != "the draft" {
		t.Fatalf("write path output %q", got)
	}
}

func TestSpellCorrectorRegistersBothStreams(t *testing.T) {
	ks := NewSpellCorrector(0).Events()
	want := map[event.Kind]bool{event.GetInputStream: true, event.GetOutputStream: true}
	if len(ks) != 2 || !want[ks[0]] || !want[ks[1]] {
		t.Fatalf("Events = %v", ks)
	}
}

func TestTranslatorToFrench(t *testing.T) {
	tr := NewTranslator(0)
	out, _ := runRead(t, tr, []byte("the document is a paper"))
	if got := string(out); got != "le document est un papier" {
		t.Fatalf("translation = %q", got)
	}
	if ks := tr.Events(); len(ks) != 1 || ks[0] != event.GetInputStream {
		t.Fatalf("translator should be read-only: %v", ks)
	}
}

func TestTranslatorPreservesUnknownWords(t *testing.T) {
	out, _ := runRead(t, NewTranslator(0), []byte("xerox parc"))
	if string(out) != "xerox parc" {
		t.Fatalf("unknown words changed: %q", out)
	}
}

func TestSummarizerTruncates(t *testing.T) {
	s := NewSummarizer(2, 0)
	out, _ := runRead(t, s, []byte("one\ntwo\nthree\nfour\n"))
	got := string(out)
	if !strings.HasPrefix(got, "one\ntwo\n") || !strings.Contains(got, "[...]") {
		t.Fatalf("summary = %q", got)
	}
	if strings.Contains(got, "three") {
		t.Fatalf("summary leaked truncated content: %q", got)
	}
}

func TestSummarizerShortDocUnchanged(t *testing.T) {
	out, _ := runRead(t, NewSummarizer(10, 0), []byte("only\nlines\n"))
	if string(out) != "only\nlines\n" {
		t.Fatalf("short doc modified: %q", out)
	}
}

func TestSummarizerMinimumOneLine(t *testing.T) {
	s := NewSummarizer(0, 0)
	out, _ := runRead(t, s, []byte("a\nb\n"))
	if !strings.HasPrefix(string(out), "a\n") {
		t.Fatalf("out = %q", out)
	}
}

func TestUppercaser(t *testing.T) {
	out, _ := runRead(t, NewUppercaser(0), []byte("shout"))
	if string(out) != "SHOUT" {
		t.Fatalf("out = %q", out)
	}
}

func TestWatermarkerDistinctPerUser(t *testing.T) {
	a, _ := runRead(t, NewWatermarker("eyal", 0), []byte("doc"))
	b, _ := runRead(t, NewWatermarker("doug", 0), []byte("doc"))
	if bytes.Equal(a, b) {
		t.Fatal("watermarks for different users identical")
	}
	if !strings.Contains(string(a), "eyal") {
		t.Fatalf("watermark missing user: %q", a)
	}
}

func TestRot13SelfInverse(t *testing.T) {
	r := NewRot13(0)
	once, _ := runRead(t, r, []byte("Secret Draft 99!"))
	twice, _ := runRead(t, r, once)
	if string(twice) != "Secret Draft 99!" {
		t.Fatalf("rot13 not self-inverse: %q", twice)
	}
	stored := runWrite(t, r, []byte("Hello"))
	back, _ := runRead(t, r, stored)
	if string(back) != "Hello" {
		t.Fatalf("write-then-read = %q", back)
	}
}

func TestLineNumberer(t *testing.T) {
	out, _ := runRead(t, NewLineNumberer(0), []byte("alpha\nbeta\n"))
	got := string(out)
	if !strings.Contains(got, "1  alpha") || !strings.Contains(got, "2  beta") {
		t.Fatalf("out = %q", got)
	}
	empty, _ := runRead(t, NewLineNumberer(0), nil)
	if len(empty) != 0 {
		t.Fatalf("empty doc produced %q", empty)
	}
}

func TestOrderSensitivity(t *testing.T) {
	// The paper's invalidation cause 3: "the result of applying a
	// spell checking property to a document varies whether it is
	// applied before or after a language translation property".
	// Demonstrate with summarize vs line-number.
	content := []byte("one\ntwo\nthree\n")
	sum, num := NewSummarizer(1, 0), NewLineNumberer(0)

	rc1 := &ReadContext{Now: epoch}
	a := run(num.WrapInput(rc1), run(sum.WrapInput(rc1), content))

	rc2 := &ReadContext{Now: epoch}
	b := run(sum.WrapInput(rc2), run(num.WrapInput(rc2), content))

	if bytes.Equal(a, b) {
		t.Fatalf("property order had no effect: %q", a)
	}
}

func TestTransformerCostAccounting(t *testing.T) {
	tr := NewTranslator(7 * time.Millisecond)
	var slept time.Duration
	rc := &ReadContext{Now: epoch, Sleep: func(d time.Duration) { slept += d }}
	out := tr.WrapInput(rc)([]byte("hello world"))
	if string(out) != "bonjour monde" {
		t.Fatalf("out = %q", out)
	}
	if slept != 7*time.Millisecond {
		t.Fatalf("execution charged %v, want 7ms", slept)
	}
	if rc.Result().Cost != 7*time.Millisecond {
		t.Fatalf("replacement cost = %v, want 7ms", rc.Result().Cost)
	}
}

func TestTransformerNilTransformsNoWrappers(t *testing.T) {
	tr := &Transformer{Base: Base{PropName: "noop"}}
	if tr.WrapInput(&ReadContext{}) != nil || tr.WrapOutput(&WriteContext{}) != nil || tr.Events() != nil {
		t.Fatal("transformer with no transforms should register nothing")
	}
}

func TestTransformerVotePropagates(t *testing.T) {
	tr := &Transformer{Base: Base{PropName: "v"}, ReadTransform: bytes.ToUpper, CacheVote: Uncacheable}
	rc := &ReadContext{}
	tr.WrapInput(rc)
	if rc.Result().Cacheability != Uncacheable {
		t.Fatal("read vote not propagated")
	}
}

func TestSortedWords(t *testing.T) {
	words := SortedWords(map[string]string{"b": "1", "a": "2", "c": "3"})
	if len(words) != 3 || words[0] != "a" || words[2] != "c" {
		t.Fatalf("SortedWords = %v", words)
	}
}

// Property: spell correction is idempotent — correcting corrected text
// changes nothing.
func TestSpellCorrectorIdempotentProperty(t *testing.T) {
	sc := NewSpellCorrector(0)
	f := func(s string) bool {
		if len(s) > 200 {
			s = s[:200]
		}
		once, _ := runRead(t, sc, []byte(s))
		twice, _ := runRead(t, sc, once)
		return bytes.Equal(once, twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: rot13(rot13(x)) == x for arbitrary bytes.
func TestRot13InvolutionProperty(t *testing.T) {
	r := NewRot13(0)
	f := func(b []byte) bool {
		once, _ := runRead(t, r, b)
		twice, _ := runRead(t, r, once)
		return bytes.Equal(twice, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkLeavesInputAlone runs transform over content placed in a slice
// with spare capacity and fails unless both the content and the spare
// capacity behind it — which an append would write into — are as they
// were, and the output is not empty.
func checkLeavesInputAlone(t *testing.T, name string, transform func([]byte) []byte, content []byte) {
	t.Helper()
	in := make([]byte, len(content), len(content)+64)
	copy(in, content)
	full := in[:cap(in)]
	for i := len(content); i < len(full); i++ {
		full[i] = '#'
	}
	want := bytes.Clone(full)
	out := transform(in)
	if !bytes.Equal(full, want) {
		t.Errorf("%s modified its input: %q", name, full)
	}
	if len(out) == 0 {
		t.Errorf("%s produced nothing", name)
	}
}

const leaveAloneContent = "Teh document is in a cache and I recieve the paper.\nhello world\nline three\n"

// TestReadTransformsLeaveInputUnchanged: a cache hands the bytes it
// stores to read transforms as their input, so no standard read
// transform may modify its input — not its bytes, and not the spare
// capacity behind them that an append would write into.
func TestReadTransformsLeaveInputUnchanged(t *testing.T) {
	content := []byte(leaveAloneContent)
	for _, p := range []*Transformer{
		NewSpellCorrector(0),
		NewTranslator(0),
		NewUppercaser(0),
		NewRot13(0),
		NewLineNumberer(0),
		NewSummarizer(1, 0),
		NewSummarizer(10, 0),
		NewWatermarker("eyal", 0),
		NewCompressor(6, 0), // content that is not deflate passes through
	} {
		checkLeavesInputAlone(t, p.Name(), func(b []byte) []byte { out, _ := runRead(t, p, b); return out }, content)
	}
	c := NewCompressor(6, 0)
	checkLeavesInputAlone(t, "compress (deflate input)", func(b []byte) []byte { out, _ := runRead(t, c, b); return out }, runWrite(t, c, content))
}

// TestWriteTransformsLeaveInputUnchanged: the write path hands a
// server's request body to the first write transform as it is, so no
// standard write transform may modify its input either.
func TestWriteTransformsLeaveInputUnchanged(t *testing.T) {
	for _, p := range []*Transformer{
		NewSpellCorrector(0),
		NewRot13(0),
		NewCompressor(6, 0),
	} {
		checkLeavesInputAlone(t, p.Name(), func(b []byte) []byte { return runWrite(t, p, b) }, []byte(leaveAloneContent))
	}
}
