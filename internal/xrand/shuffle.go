package xrand

import "creditp2p/internal/prefetch"

// shuffleBatch is how many swap targets ShuffleInt32s draws and hints
// before it swaps. A batch has to outnumber the core's outstanding-miss
// slots to keep them full; the swaps of a batch then find their lines
// already arriving.
const shuffleBatch = 64

// ShuffleInt32s shuffles s in place. It makes exactly the draws and swaps
// of r.Shuffle(len(s), swap) with swap exchanging s[i] and s[j], so the
// permutation, the draw count and every later draw are the same.
//
// r.Shuffle draws a target j and swaps at once, so over a slice larger
// than the cache every swap waits on its own miss at s[j]. The targets
// depend only on the stream and the loop index, never on the contents of
// s, so this draws a batch of them ahead, hints all their lines with one
// prefetch.Indexed call, and only then swaps: the batch's misses overlap
// instead of queueing.
func (r *RNG) ShuffleInt32s(s []int32) {
	if len(s) > 1<<31-1 {
		// math/rand draws the leading targets with Int63n here.
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return
	}
	var js [shuffleBatch]int32
	for i := len(s) - 1; i > 0; {
		k := min(i, shuffleBatch)
		for b := range k {
			js[b] = r.int31n(int32(i + 1 - b))
		}
		prefetch.Indexed(s, js[:k])
		for b, j := range js[:k] {
			s[i-b], s[j] = s[j], s[i-b]
		}
		i -= k
	}
}

// int31n is math/rand's unexported (*Rand).int31n, the multiply-and-reject
// reduction its Shuffle draws targets with (Int31n uses another one): a
// uniform value in [0, n) for n > 0, from the same source draws in the
// same order.
func (r *RNG) int31n(n int32) int32 {
	v := r.uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = r.uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// uint32 is math/rand's (*Rand).Uint32: the top 32 of 63 bits of one
// counted draw.
func (r *RNG) uint32() uint32 { return uint32(r.cs.Int63() >> 31) }
