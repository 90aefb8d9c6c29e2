package xrand

import (
	"math"
	"testing"
)

func TestFenwickTotalsAndFind(t *testing.T) {
	w := []float64{2, 0, 3, 1, 0, 4}
	f := NewFenwick(w)
	if f.n != len(w) {
		t.Fatalf("n = %d, want %d", f.n, len(w))
	}
	if f.total != 10 {
		t.Fatalf("total = %v, want 10", f.total)
	}
	// Find maps every u in [0, total) to the index whose cumulative range
	// contains it; zero-weight entries own empty ranges and are never hit.
	wantAt := func(u float64, want int) {
		t.Helper()
		if got := f.Find(u); got != want {
			t.Errorf("Find(%v) = %d, want %d", u, got, want)
		}
	}
	wantAt(0, 0)
	wantAt(1.999, 0)
	wantAt(2, 2)
	wantAt(4.999, 2)
	wantAt(5, 3)
	wantAt(5.999, 3)
	wantAt(6, 5)
	wantAt(9.999, 5)
	// Floating-point slop past the total clamps instead of indexing out.
	wantAt(10.5, 5)
}

func TestFenwickResetReusesStorage(t *testing.T) {
	f := NewFenwick([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	f.Reset([]float64{4, 6})
	if f.n != 2 || f.total != 10 {
		t.Fatalf("after Reset: n=%d total=%v", f.n, f.total)
	}
	if got := f.Find(5); got != 1 {
		t.Errorf("Find(5) = %d, want 1", got)
	}
	f.Reset(nil)
	if _, ok := f.Sample(New(1)); ok {
		t.Error("Sample on empty sampler reported ok")
	}
}

// chiSquare returns the one-sample chi-square statistic of observed counts
// against the distribution implied by weights over draws trials.
func chiSquare(obs []int, weights []float64, draws int) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	var x2 float64
	for i, w := range weights {
		exp := float64(draws) * w / total
		if exp == 0 {
			continue
		}
		d := float64(obs[i]) - exp
		x2 += d * d / exp
	}
	return x2
}

// chiCrit approximates the upper chi-square quantile via Wilson–Hilferty;
// z = 3.29 is the one-sided p ~ 5e-4 normal quantile, loose enough that a
// fixed-seed run passing once passes forever.
func chiCrit(dof int) float64 {
	k := float64(dof)
	z := 3.29
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

// TestFenwickMatchesExactScanDistribution is the degree-weighted half of
// the fast-sampler distribution-equivalence suite: over a power-law-style
// weight vector (a scale-free neighborhood's degrees), 2e5 fixed-seed draws
// from the Fenwick sampler and from the exact linear scan must each match
// the true distribution (one-sample chi-square) and each other (two-sample
// chi-square).
func TestFenwickMatchesExactScanDistribution(t *testing.T) {
	// Deterministic degree-like weights: heavy head, long tail of small
	// degrees, a few zero-weight holes like free-rider exclusions.
	weights := make([]float64, 48)
	for i := range weights {
		switch {
		case i == 0:
			weights[i] = 190
		case i == 1:
			weights[i] = 55
		case i%11 == 5:
			weights[i] = 0
		default:
			weights[i] = float64(1 + i%7)
		}
	}
	const draws = 200_000
	f := NewFenwick(weights)
	rf := New(777)
	obsF := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		j, ok := f.Sample(rf)
		if !ok {
			t.Fatal("Sample failed")
		}
		obsF[j]++
	}
	rs := New(778)
	obsS := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		j, err := SampleWeighted(rs, weights)
		if err != nil {
			t.Fatal(err)
		}
		obsS[j]++
	}
	for i, w := range weights {
		if w == 0 && (obsF[i] != 0 || obsS[i] != 0) {
			t.Fatalf("zero-weight index %d drawn (%d fenwick, %d scan)", i, obsF[i], obsS[i])
		}
	}
	// dof: non-zero categories minus one.
	cats := 0
	for _, w := range weights {
		if w > 0 {
			cats++
		}
	}
	crit := chiCrit(cats - 1)
	if x2 := chiSquare(obsF, weights, draws); x2 > crit {
		t.Errorf("fenwick chi-square %.1f exceeds %.1f", x2, crit)
	}
	if x2 := chiSquare(obsS, weights, draws); x2 > crit {
		t.Errorf("exact-scan chi-square %.1f exceeds %.1f", x2, crit)
	}
	// Two-sample: sum (o1-o2)^2/(o1+o2) ~ chi-square with cats-1 dof.
	var x2 float64
	for i := range weights {
		if s := obsF[i] + obsS[i]; s > 0 {
			d := float64(obsF[i] - obsS[i])
			x2 += d * d / float64(s)
		}
	}
	if x2 > crit {
		t.Errorf("two-sample chi-square %.1f exceeds %.1f", x2, crit)
	}
}
