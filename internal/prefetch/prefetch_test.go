package prefetch

import "testing"

type rec struct {
	bal  int64
	flag uint8
	w    float32
}

// allocFree checks that hinting the first and last element of s, one by
// one and through Ends, allocates nothing.
func allocFree[T any](t *testing.T, name string, s []T) {
	t.Helper()
	if n := testing.AllocsPerRun(100, func() {
		Of(&s[0])
		Of(&s[len(s)-1])
		Ends(s)
		Ends(s[:1])
		Ends(s[:0])
	}); n != 0 {
		t.Errorf("Of and Ends on []%s allocate %v per call set, want 0", name, n)
	}
}

func TestOfAllocatesNothing(t *testing.T) {
	allocFree(t, "int64", make([]int64, 1000))
	allocFree(t, "uint8", make([]uint8, 1000))
	allocFree(t, "float32", make([]float32, 1000))
	allocFree(t, "rec", make([]rec, 1000))
}

// BenchmarkOf measures one hint two ways: on a line already in L1 (the
// call's own cost) and streaming over a working set larger than the last
// cache level, a new line per hint (bounded by memory bandwidth once the
// fill buffers are busy).
func BenchmarkOf(b *testing.B) {
	b.Run("hot", func(b *testing.B) {
		var x int64
		for b.Loop() {
			Of(&x)
		}
	})
	b.Run("stream", func(b *testing.B) {
		s := make([]int64, 1<<23) // 64 MB
		const stride = 8          // one 64-byte line of int64
		i := 0
		for b.Loop() {
			Of(&s[i])
			i += stride
			if i >= len(s) {
				i = 0
			}
		}
	})
}
