package sig

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestOfDeterministic(t *testing.T) {
	a, b := Of([]byte("doc")), Of([]byte("doc"))
	if a != b {
		t.Fatal("same content produced different signatures")
	}
}

func TestOfDistinguishesContent(t *testing.T) {
	if Of([]byte("a")) == Of([]byte("b")) {
		t.Fatal("different content collided")
	}
}

func TestZeroSentinel(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if Of([]byte("x")).IsZero() {
		t.Fatal("real signature reported as zero")
	}
}

// Property: equal content ⇒ equal signature, and signatures of
// content differing in one byte differ (a 128-bit collision is
// negligible at quick-check scale).
func TestContentEqualityProperty(t *testing.T) {
	f := func(data []byte, flip uint16) bool {
		cp := append([]byte{}, data...)
		if Of(data) != Of(cp) {
			return false
		}
		if len(cp) == 0 {
			return true
		}
		cp[int(flip)%len(cp)] ^= 0xFF
		return bytes.Equal(data, cp) || Of(data) != Of(cp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOfIsTruncatedSHA256 pins the algorithm: a signature written by
// one build must name the same bytes for every other build, so the
// durable store and the wire never depend on which host signed.
func TestOfIsTruncatedSHA256(t *testing.T) {
	for in, want := range map[string]string{
		"":    "e3b0c44298fc1c149afbf4c8996fb924",
		"abc": "ba7816bf8f01cfea414140de5dae2223",
	} {
		if got := Of([]byte(in)).String(); got != want {
			t.Errorf("Of(%q) = %s, want %s", in, got, want)
		}
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink Signature

// BenchmarkOf4K signs one 4 KiB body, the live benchmark's churn_mix
// document size.
func BenchmarkOf4K(b *testing.B) {
	data := bytes.Repeat([]byte("teh document is in a cache\n"), 152)[:4096]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Of(data)
	}
}
