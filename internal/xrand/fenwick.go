package xrand

import "math/bits"

// Fenwick is a binary-indexed tree over a vector of non-negative weights,
// supporting O(log n) sampling with probability proportional to weight. It
// is the prebuilt counterpart of SampleWeighted for distributions drawn
// from many times between changes — the market's fast degree-routing mode
// keeps one per spender over its neighborhood, so a draw is O(log degree)
// instead of an O(degree) scan.
//
// The tree is rebuilt in place by Reset (reusing storage), so a recycled
// peer slot costs no allocation. Weights must be non-negative and finite;
// sampling with a non-positive total returns ok=false.
type Fenwick struct {
	tree  []float64 // 1-based partial sums
	n     int
	top   int // highest power of two <= n
	total float64
}

// NewFenwick builds a sampler over the given weights in O(n).
func NewFenwick(weights []float64) *Fenwick {
	f := &Fenwick{}
	f.Reset(weights)
	return f
}

// Len returns the number of weights the sampler draws from.
func (f *Fenwick) Len() int { return f.n }

// Reset rebuilds the tree over a fresh weight vector in O(n), reusing the
// existing storage when it is large enough.
func (f *Fenwick) Reset(weights []float64) {
	n := len(weights)
	f.n = n
	if cap(f.tree) < n+1 {
		f.tree = make([]float64, n+1)
	} else {
		f.tree = f.tree[:n+1]
		clear(f.tree)
	}
	f.total = 0
	for i, w := range weights {
		f.tree[i+1] = w
		f.total += w
	}
	// Ascending pass pushes each node into its immediate parent: children
	// are final before their parent is read, yielding the O(n) build.
	for i := 1; i <= n; i++ {
		if p := i + (i & -i); p <= n {
			f.tree[p] += f.tree[i]
		}
	}
	f.top = 1
	for f.top*2 <= n {
		f.top *= 2
	}
}

// Find returns the index i with prefix(i) <= u < prefix(i+1) by binary
// descent over the tree — the inverse-CDF lookup. u outside [0, total)
// clamps to the nearest end, so floating-point slop at the boundaries
// cannot index out of range.
func (f *Fenwick) Find(u float64) int {
	i := 0
	for k := f.top; k > 0; k >>= 1 {
		if j := i + k; j <= f.n && f.tree[j] <= u {
			u -= f.tree[j]
			i = j
		}
	}
	if i >= f.n {
		i = f.n - 1
	}
	return i
}

// Sample draws an index with probability weights[i]/total using a single
// uniform variate. ok is false when the total is not positive.
func (f *Fenwick) Sample(r *RNG) (int, bool) {
	if f.n == 0 || f.total <= 0 {
		return 0, false
	}
	return f.Find(r.Float64() * f.total), true
}

// Slab-form Fenwick primitives for callers that pack many small trees into
// one shared arena (the sharded kernel keeps one tree per peer over its
// neighborhood, laid out back to back in a single []float32). Each tree is
// a plain slice tree[0:n+1] in the struct layout above — slot 0 unused,
// leaves at 1..n — but with the length, top bit, and running total derived
// on the fly instead of stored, so a million trees carry no per-tree
// header. The slab holds float32: sampling weights carry ~1 useful digit
// (an EWMA in [floor, floor+1], or a degree), so the 24-bit mantissa is
// orders of magnitude beyond what the draw needs, and halving the slab
// halves the rebuild/patch memory traffic that dominates weighted-routing
// cost at millions of peers. The descent still runs the random variate in
// float64 (float32 values widen exactly), keeping the draw deterministic.
// All three functions are allocation-free.

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
