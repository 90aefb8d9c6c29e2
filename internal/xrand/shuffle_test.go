package xrand

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestShuffleInt32sMatchesShuffle checks that ShuffleInt32s produces the
// permutation r.Shuffle does, consumes the same number of source draws and
// leaves the stream at the same next draw, at sizes around the batch
// boundary and at one well past it.
func TestShuffleInt32sMatchesShuffle(t *testing.T) {
	sizes := []int{0, 1, 2, shuffleBatch - 1, shuffleBatch, shuffleBatch + 1, shuffleBatch + 2, 2*shuffleBatch + 1, 100_003}
	for _, n := range sizes {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				ref, got := New(seed), New(seed)
				want := make([]int32, n)
				for i := range want {
					want[i] = int32(i)
				}
				s := slices.Clone(want)
				ref.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
				got.ShuffleInt32s(s)
				if !slices.Equal(s, want) {
					t.Fatal("permutation differs from Shuffle's")
				}
				if got.cs.draws != ref.cs.draws {
					t.Fatalf("draws = %d, Shuffle made %d", got.cs.draws, ref.cs.draws)
				}
				if a, b := got.Int63(), ref.Int63(); a != b {
					t.Fatalf("next draw = %d, after Shuffle %d", a, b)
				}
			})
		}
	}
}

// TestInt31nMatchesMathRand checks int31n against the draws math/rand's
// own Shuffle makes for bounds at the top of the int32 range, and for
// bounds in the upper half where about a quarter of draws go through the
// rejection loop (math/rand exports no other caller of int31n; Int31n
// reduces differently). Shuffle over n elements draws its targets for
// bounds n, n-1, ...; the swap callback records them and stops the
// shuffle after a fixed count.
func TestInt31nMatchesMathRand(t *testing.T) {
	const steps = 4000
	cases := []struct {
		n       int
		rejects bool // the rejection threshold 2^32 mod n is a sizeable share of 2^32
	}{{1<<31 - 1, false}, {1<<31 - 2, false}, {3 << 29, true}, {1<<30 + 1, true}}
	for _, c := range cases {
		n := c.n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cs := &countedSource{src: rand.NewSource(5).(rand.Source64)}
			var want []int32
			func() {
				defer func() {
					if r := recover(); r != errStop {
						panic(r)
					}
				}()
				rand.New(cs).Shuffle(n, func(i, j int) {
					want = append(want, int32(j))
					if len(want) == steps {
						panic(errStop)
					}
				})
			}()
			r := New(5)
			for k, w := range want {
				if j := r.int31n(int32(n - k)); j != w {
					t.Fatalf("step %d: int31n(%d) = %d, math/rand drew %d", k, n-k, j, w)
				}
			}
			if r.cs.draws != cs.draws {
				t.Fatalf("draws = %d, math/rand made %d", r.cs.draws, cs.draws)
			}
			if c.rejects && cs.draws == steps {
				t.Fatalf("%d steps never rejected a draw", steps)
			}
		})
	}
}

var errStop = errors.New("stop")

// BenchmarkShuffleInt32s shuffles 2M stubs, the size of the 100k-peer
// overlay's stub array, one shuffle per op.
func BenchmarkShuffleInt32s(b *testing.B) {
	s := make([]int32, 2_000_000)
	for i := range s {
		s[i] = int32(i)
	}
	r := New(1)
	for b.Loop() {
		r.ShuffleInt32s(s)
	}
}
