package xrand

import (
	"errors"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Drawing from the child must not change what the parent produces next
	// relative to a parent that split and never used the child.
	parent2 := New(7)
	_ = parent2.Split()
	for i := 0; i < 10; i++ {
		child.Float64()
	}
	for i := 0; i < 100; i++ {
		if parent.Float64() != parent2.Float64() {
			t.Fatalf("parent stream perturbed by child draws at %d", i)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	tests := []struct {
		name string
		rate float64
	}{
		{"rate-half", 0.5},
		{"rate-one", 1},
		{"rate-five", 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := New(123)
			const n = 200000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				x := r.Exponential(tc.rate)
				if x < 0 {
					t.Fatalf("negative exponential sample %v", x)
				}
				sum += x
				sumSq += x * x
			}
			mean := sum / n
			wantMean := 1 / tc.rate
			if math.Abs(mean-wantMean) > 0.02*wantMean {
				t.Errorf("mean = %v, want ~%v", mean, wantMean)
			}
			variance := sumSq/n - mean*mean
			wantVar := 1 / (tc.rate * tc.rate)
			if math.Abs(variance-wantVar) > 0.06*wantVar {
				t.Errorf("variance = %v, want ~%v", variance, wantVar)
			}
		})
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	New(1).Exponential(0)
}

func TestPoissonMoments(t *testing.T) {
	// Covers both the Knuth (<30) and PTRS (>=30) regimes.
	tests := []struct {
		name string
		mean float64
	}{
		{"tiny", 0.3},
		{"unit", 1},
		{"knuth", 12},
		{"boundary", 29.5},
		{"ptrs", 60},
		{"large", 400},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := New(99)
			const n = 100000
			var sum, sumSq float64
			for i := 0; i < n; i++ {
				k := r.Poisson(tc.mean)
				if k < 0 {
					t.Fatalf("negative Poisson sample %d", k)
				}
				x := float64(k)
				sum += x
				sumSq += x * x
			}
			mean := sum / n
			if math.Abs(mean-tc.mean) > 0.03*tc.mean+0.01 {
				t.Errorf("mean = %v, want ~%v", mean, tc.mean)
			}
			variance := sumSq/n - mean*mean
			if math.Abs(variance-tc.mean) > 0.08*tc.mean+0.02 {
				t.Errorf("variance = %v, want ~%v (Poisson)", variance, tc.mean)
			}
		})
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if k := r.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d, want 0", k)
		}
	}
}

func TestPoissonPanicsOnNegativeMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative mean")
		}
	}()
	New(1).Poisson(-1)
}

func TestParetoTail(t *testing.T) {
	r := New(5)
	const n = 100000
	xm, alpha := 2.0, 3.0
	var below float64
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Pareto(xm, alpha)
		if x < xm {
			t.Fatalf("Pareto sample %v below scale %v", x, xm)
		}
		if x < 4 {
			below++
		}
		sum += x
	}
	// P(X < 4) = 1 - (2/4)^3 = 0.875.
	if p := below / n; math.Abs(p-0.875) > 0.01 {
		t.Errorf("P(X<4) = %v, want ~0.875", p)
	}
	// Mean = alpha*xm/(alpha-1) = 3.
	if mean := sum / n; math.Abs(mean-3) > 0.1 {
		t.Errorf("mean = %v, want ~3", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(11)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(-2, 5)
		if x < -2 || x >= 5 {
			t.Fatalf("Uniform(-2,5) = %v out of range", x)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(8)
	const n = 100000
	below := 0
	for i := 0; i < n; i++ {
		if r.LogNormal(1, 0.5) < math.E {
			below++
		}
	}
	// Median of LogNormal(mu=1, sigma) is e^1.
	if p := float64(below) / n; math.Abs(p-0.5) > 0.01 {
		t.Errorf("P(X < e) = %v, want ~0.5", p)
	}
}

func TestSampleWeightedFrequencies(t *testing.T) {
	weights := []float64{3, 0, 1}
	r := New(53)
	counts := make([]int, 3)
	const n = 200000
	for i := 0; i < n; i++ {
		idx, err := SampleWeighted(r, weights)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index sampled %d times", counts[1])
	}
	if p := float64(counts[0]) / n; math.Abs(p-0.75) > 0.01 {
		t.Errorf("index 0 frequency %v, want ~0.75", p)
	}
}

func TestSampleWeightedErrors(t *testing.T) {
	r := New(1)
	if _, err := SampleWeighted(r, nil); !errors.Is(err, ErrNoWeights) {
		t.Errorf("nil weights error = %v, want ErrNoWeights", err)
	}
	if _, err := SampleWeighted(r, []float64{0, 0}); !errors.Is(err, ErrNoWeights) {
		t.Errorf("zero weights error = %v, want ErrNoWeights", err)
	}
	if _, err := SampleWeighted(r, []float64{1, math.NaN()}); err == nil {
		t.Error("expected error for NaN weight")
	}
}
