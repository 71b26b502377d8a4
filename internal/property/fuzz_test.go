package property

import (
	"bytes"
	"testing"
)

// applyRead pushes content through a property's read transform.
func applyRead(t *testing.T, p Active, content []byte) []byte {
	t.Helper()
	return run(p.WrapInput(&ReadContext{}), content)
}

// FuzzSpellCorrectorIdempotent checks the word-mapping transform never
// panics and is idempotent on arbitrary byte content.
func FuzzSpellCorrectorIdempotent(f *testing.F) {
	f.Add([]byte("teh quick brown fox"))
	f.Add([]byte(""))
	f.Add([]byte{0xff, 0x00, 0x80})
	f.Add([]byte("Teh TEH teh'teh-teh\nrecieve"))
	f.Fuzz(func(t *testing.T, content []byte) {
		sc := NewSpellCorrector(0)
		once := applyRead(t, sc, content)
		twice := applyRead(t, sc, once)
		if !bytes.Equal(once, twice) {
			t.Fatalf("not idempotent: %q -> %q -> %q", content, once, twice)
		}
	})
}

// FuzzCompressorRoundTrip checks write-then-read through the
// compression property restores arbitrary content exactly.
func FuzzCompressorRoundTrip(f *testing.F) {
	f.Add([]byte("hello"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, 4096))
	f.Fuzz(func(t *testing.T, content []byte) {
		c := NewCompressor(6, 0)
		back := applyRead(t, c, run(c.WrapOutput(&WriteContext{}), content))
		if !bytes.Equal(back, content) {
			t.Fatalf("round trip lost data: %d bytes -> %d bytes", len(content), len(back))
		}
	})
}

// FuzzRot13Involution checks rot13∘rot13 = identity for arbitrary
// bytes.
func FuzzRot13Involution(f *testing.F) {
	f.Add([]byte("Mixed CASE and 123!"))
	f.Fuzz(func(t *testing.T, content []byte) {
		r := NewRot13(0)
		twice := applyRead(t, r, applyRead(t, r, content))
		if !bytes.Equal(twice, content) {
			t.Fatal("rot13 not an involution")
		}
	})
}
