package property

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"placeless/internal/stream"
)

// refWordMap is wordMap as it was before its kernel became one pass
// over a snapshot: a growing buffer, a string and a map look-up per
// word, and the live table read on every call. It is kept as the
// reference the kernel must match byte for byte on the shipped tables.
func refWordMap(table map[string]string) stream.Transform {
	return func(b []byte) []byte {
		var out bytes.Buffer
		word := make([]byte, 0, 32)
		flush := func() {
			if len(word) == 0 {
				return
			}
			w := string(word)
			repl, ok := table[strings.ToLower(w)]
			if !ok {
				out.Write(word)
			} else {
				if w[0] >= 'A' && w[0] <= 'Z' && len(repl) > 0 {
					repl = strings.ToUpper(repl[:1]) + repl[1:]
				}
				out.WriteString(repl)
			}
			word = word[:0]
		}
		for _, c := range b {
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
				word = append(word, c)
			} else {
				flush()
				out.WriteByte(c)
			}
		}
		flush()
		return out.Bytes()
	}
}

// benchFiller is the live benchmark's document body after its version
// stamp: words both shipped tables rewrite, and words neither touches.
const benchFiller = "teh documnet cache is active and the paper of the workshop is a system with property caching. "

// stampText is n bytes of the live benchmark's document shape: a
// version stamp, then benchFiller over and over.
func stampText(n int) []byte {
	out := []byte(fmt.Sprintf("v%08d|%s|", 7, "doc-0042"))
	for len(out) < n {
		out = append(out, benchFiller...)
	}
	return out[:n]
}

var shippedTables = []struct {
	name  string
	table map[string]string
}{
	{"misspellings", DefaultMisspellings},
	{"french", DefaultFrench},
}

// FuzzWordMap: on the shipped tables the kernel's output is the
// reference's, byte for byte, and its input is left as it was.
func FuzzWordMap(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("Teh THE The tHe A a Of OF Caching CACHING Property"))
	f.Add([]byte("0the1 2of3 a4a 12345 teh9documnet"))
	f.Add(stampText(600))
	f.Add([]byte("é the\xffa\x80of système\xc3 cachable\xe2\x82"))
	kernels := make([]stream.Transform, len(shippedTables))
	for i, tb := range shippedTables {
		kernels[i] = wordMap(tb.table)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		orig := bytes.Clone(in)
		for i, tb := range shippedTables {
			got := kernels[i](in)
			if want := refWordMap(tb.table)(in); !bytes.Equal(got, want) {
				t.Fatalf("%s: %q -> %q, reference %q", tb.name, in, got, want)
			}
			if !bytes.Equal(in, orig) {
				t.Fatalf("%s: input changed to %q", tb.name, in)
			}
		}
	})
}

// TestWordMapSnapshotsItsTable: a transform keeps the table it was
// built with, so the memo key taken at construction keeps naming the
// bytes it produces after the caller's map changes.
func TestWordMapSnapshotsItsTable(t *testing.T) {
	table := map[string]string{"cat": "chat", "dog": "chien"}
	tr := wordMap(table)
	digest := tableDigest(table)
	table["cat"] = "matou"
	table["bird"] = "oiseau"
	delete(table, "dog")
	if got, want := string(tr([]byte("Cat, dog and bird."))), "Chat, chien and bird."; got != want {
		t.Fatalf("after the table changed: %q, want %q", got, want)
	}
	if tableDigest(table) == digest {
		t.Fatal("the changed table digests as the old one; the test proves nothing")
	}
}

// TestWordMapUpperCasesFirstRune: a capitalized word whose replacement
// starts with a multi-byte rune gets that rune upper-cased, not one of
// its bytes.
func TestWordMapUpperCasesFirstRune(t *testing.T) {
	table := map[string]string{"ecole": "école", "eu": "\xffoops", "x": ""}
	tr := wordMap(table)
	for in, want := range map[string]string{
		"ecole": "école",
		"Ecole": "École",
		"ECOLE": "École",
		"Eu eu": "\xffoops \xffoops", // not UTF-8: left as it is
		"X-x":   "-",
	} {
		if got := string(tr([]byte(in))); got != want {
			t.Errorf("%q -> %q, want %q", in, got, want)
		}
	}
	// The reference shows the fault: U+FFFD and a stray continuation
	// byte where É belongs.
	if got := string(refWordMap(table)([]byte("Ecole"))); got != "�\xa9cole" {
		t.Errorf("reference: %q", got)
	}
}

// TestWordMapSizesItsOutput: however the table lengthens a text, the
// kernel makes one allocation, its output, with no spare capacity.
func TestWordMapSizesItsOutput(t *testing.T) {
	table := map[string]string{"a": "ɐɐɐ", "caching": "mise-en-cache", "the": "le"}
	tr := wordMap(table)
	for _, in := range []string{"a", "A a A", "caching", "a caching A CACHING", strings.Repeat("A ", 100), strings.Repeat("caching.", 50)} {
		b := []byte(in)
		if n := testing.AllocsPerRun(10, func() { tr(b) }); n != 1 {
			t.Errorf("%q: %v allocations, want 1", in, n)
		}
		if out := tr(b); cap(out) != len(out) {
			t.Errorf("%q: %d bytes in %d of capacity", in, len(out), cap(out))
		}
	}
}

// BenchmarkWordMap64K runs both shipped tables over 64 KiB of the live
// benchmark's document text, with the kernel and with the reference.
// Run with -benchmem: the kernel makes one allocation per call.
func BenchmarkWordMap64K(b *testing.B) {
	in := stampText(64 << 10)
	for _, tb := range shippedTables {
		for _, k := range []struct {
			name string
			tr   stream.Transform
		}{{"kernel", wordMap(tb.table)}, {"reference", refWordMap(tb.table)}} {
			b.Run(tb.name+"/"+k.name, func(b *testing.B) {
				b.SetBytes(int64(len(in)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.tr(in)
				}
			})
		}
	}
}
