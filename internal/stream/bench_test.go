package stream

import (
	"bytes"
	"io"
	"testing"
)

// benchContent is a 64 KiB body.
var benchContent = bytes.Repeat([]byte("the placeless documents system transforms content "), 1285)

func BenchmarkWholeInputChain(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		b.Run(itoa(depth), func(b *testing.B) {
			wrappers := make([]InputWrapper, depth)
			for i := range wrappers {
				wrappers[i] = WholeInput(bytes.ToUpper)
			}
			b.SetBytes(int64(len(benchContent)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ChainInput(BytesReader(benchContent), wrappers...)
				if _, err := io.Copy(io.Discard, r); err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}

func BenchmarkWholeOutputChain(b *testing.B) {
	b.SetBytes(int64(len(benchContent)))
	for i := 0; i < b.N; i++ {
		var sink BufferCloser
		w := ChainOutput(&sink, WholeOutput(bytes.ToUpper), WholeOutput(bytes.ToLower))
		if _, err := w.Write(benchContent); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// itoa avoids strconv for this tiny use.
func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
