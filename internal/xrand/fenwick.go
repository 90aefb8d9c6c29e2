package xrand

import "math/bits"

// Fenwick (binary-indexed tree) primitives over float32 slabs, for
// callers that pack many small trees into one shared arena: the sharded
// kernel keeps one tree per peer over its neighborhood, laid out back to
// back in a single []float32. Each tree is a plain slice tree[0:n+1] with
// leaves at 1..n and slot 0 free for the caller (the kernel caches the
// weight total there); the length, top bit and total are derived on the
// fly instead of stored, so a million trees carry no per-tree header. The slab holds float32: sampling weights carry ~1
// useful digit (an EWMA in [floor, floor+1], or a degree), so the 24-bit
// mantissa is orders of magnitude beyond what the draw needs, and halving
// the slab halves the rebuild/patch memory traffic that dominates
// weighted-routing cost at millions of peers. The descent still runs the
// random variate in float64 (float32 values widen exactly), keeping the
// draw deterministic. All three functions are allocation-free; the
// float64 reference they are tested against lives in fenwick_test.go.

// FenBuild converts tree (leaves pre-filled at tree[1:len(tree)]) into
// Fenwick partial-sum form in place and returns the weight total. O(n).
func FenBuild(tree []float32) float32 {
	n := len(tree) - 1
	total := float32(0)
	for i := 1; i <= n; i++ {
		total += tree[i]
	}
	for i := 1; i <= n; i++ {
		if p := i + (i & -i); p <= n {
			tree[p] += tree[i]
		}
	}
	return total
}

// FenAdd adds delta to the weight at 0-based index i of a slab tree.
func FenAdd(tree []float32, i int, delta float32) {
	n := len(tree) - 1
	for j := i + 1; j <= n; j += j & -j {
		tree[j] += delta
	}
}

// FenFind is the slab form of Find: the inverse-CDF binary descent over a
// built tree, returning the 0-based index i with prefix(i) <= u <
// prefix(i+1). u outside [0, total) clamps to the nearest end.
func FenFind(tree []float32, u float64) int {
	n := len(tree) - 1
	if n < 1 {
		return 0
	}
	i := 0
	for k := 1 << (bits.Len(uint(n)) - 1); k > 0; k >>= 1 {
		if j := i + k; j <= n && float64(tree[j]) <= u {
			u -= float64(tree[j])
			i = j
		}
	}
	if i >= n {
		i = n - 1
	}
	return i
}
