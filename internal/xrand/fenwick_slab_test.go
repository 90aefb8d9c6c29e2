package xrand

import (
	"math"
	"testing"
)

// The slab-form Fenwick primitives must agree exactly with the struct form
// — same build order, same descent — so a tree built either way yields
// bit-identical samples from the same variates. The slab holds float32, so
// the tests use integer-valued weights (exact in both precisions, sums well
// under 2^24) to make the comparison bit-exact rather than approximate.

func TestFenSlabMatchesStruct(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64, 100} {
		weights := make([]float64, n)
		tree := make([]float32, n+1)
		for i := range weights {
			w := float64(1 + r.Intn(8))
			weights[i] = w
			tree[i+1] = float32(w)
		}
		f := NewFenwick(weights)

		total := FenBuild(tree)
		if float64(total) != f.total {
			t.Fatalf("n=%d: FenBuild total %v, struct total %v", n, total, f.total)
		}
		for i := 1; i <= n; i++ {
			if float64(tree[i]) != f.tree[i] {
				t.Fatalf("n=%d: node %d differs: slab %v, struct %v", n, i, tree[i], f.tree[i])
			}
		}
		for k := 0; k < 200; k++ {
			u := r.Float64() * float64(total)
			if got, want := FenFind(tree, u), f.Find(u); got != want {
				t.Fatalf("n=%d: FenFind(%v) = %d, struct Find = %d", n, u, got, want)
			}
		}
	}
}

func TestFenSlabAddMatchesStruct(t *testing.T) {
	r := New(13)
	const n = 37
	weights := make([]float64, n)
	tree := make([]float32, n+1)
	for i := range weights {
		w := float64(1 + r.Intn(4))
		weights[i] = w
		tree[i+1] = float32(w)
	}
	f := NewFenwick(weights)
	total := float64(FenBuild(tree))

	for k := 0; k < 500; k++ {
		i := r.Intn(n)
		delta := float64(r.Intn(5) - 2)
		if weights[i]+delta < 0 {
			delta = -weights[i]
		}
		weights[i] += delta
		// Integer weights make the rebuilt struct tree exactly equal to
		// the incrementally patched slab one.
		f.Reset(weights)
		FenAdd(tree, i, float32(delta))
		total += delta
		u := r.Float64() * total
		if got, want := FenFind(tree, u), f.Find(u); got != want {
			t.Fatalf("step %d: FenFind(%v) = %d, struct Find = %d", k, u, got, want)
		}
	}
	for i := 1; i <= n; i++ {
		if math.Abs(float64(tree[i])-f.tree[i]) != 0 {
			t.Fatalf("node %d drifted: slab %v, struct %v", i, tree[i], f.tree[i])
		}
	}
}

func TestFenFindClamps(t *testing.T) {
	tree := []float32{0, 2, 3, 5} // weights 2, 3, 5
	total := FenBuild(tree)
	if total != 10 {
		t.Fatalf("total = %v, want 10", total)
	}
	if got := FenFind(tree, -1); got != 0 {
		t.Fatalf("FenFind(-1) = %d, want 0 (clamp low)", got)
	}
	if got := FenFind(tree, 10); got != 2 {
		t.Fatalf("FenFind(total) = %d, want 2 (clamp high)", got)
	}
	if got := FenFind(tree, 1e9); got != 2 {
		t.Fatalf("FenFind(1e9) = %d, want 2 (clamp high)", got)
	}
	if got := FenFind([]float32{0}, 0.5); got != 0 {
		t.Fatalf("FenFind on empty tree = %d, want 0", got)
	}
}
