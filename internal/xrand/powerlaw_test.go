package xrand

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPowerLawValidation(t *testing.T) {
	tests := []struct {
		name     string
		min, max int
		alpha    float64
	}{
		{"zero-min", 0, 10, 2.5},
		{"inverted", 10, 5, 2.5},
		{"zero-alpha", 1, 10, 0},
		{"nan-alpha", 1, 10, math.NaN()},
		{"inf-alpha", 1, 10, math.Inf(1)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPowerLaw(tc.min, tc.max, tc.alpha); err == nil {
				t.Errorf("NewPowerLaw(%d,%d,%v) succeeded, want error", tc.min, tc.max, tc.alpha)
			}
		})
	}
}

func TestPowerLawSupport(t *testing.T) {
	pl, err := NewPowerLaw(3, 40, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(17)
	for i := 0; i < 10000; i++ {
		d := pl.Sample(r)
		if d < 3 || d > 40 {
			t.Fatalf("sample %d outside [3, 40]", d)
		}
	}
}

func TestPowerLawEmpiricalMeanMatchesAnalytic(t *testing.T) {
	pl, err := NewPowerLaw(5, 200, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(23)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(pl.Sample(r))
	}
	mean := sum / n
	if math.Abs(mean-pl.Mean()) > 0.03*pl.Mean() {
		t.Errorf("empirical mean %v, analytic %v", mean, pl.Mean())
	}
}

func TestPowerLawShape(t *testing.T) {
	// With alpha=2.5, P(D=2)/P(D=1) = 2^-2.5.
	pl, err := NewPowerLaw(1, 100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	r := New(29)
	counts := make(map[int]int)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[pl.Sample(r)]++
	}
	ratio := float64(counts[2]) / float64(counts[1])
	want := math.Pow(2, -2.5)
	if math.Abs(ratio-want) > 0.02 {
		t.Errorf("P(2)/P(1) = %v, want ~%v", ratio, want)
	}
}

func TestPowerLawForMean(t *testing.T) {
	// The paper's overlay: alpha=2.5, mean degree ~20.
	pl, err := PowerLawForMean(500, 2.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Mean()-20) > 4 {
		t.Errorf("PowerLawForMean mean = %v, want within 4 of 20", pl.Mean())
	}
	if pl.Min() < 1 || pl.Max() != 500 {
		t.Errorf("unexpected support [%d, %d]", pl.Min(), pl.Max())
	}
}

func TestPowerLawForMeanRejectsImpossible(t *testing.T) {
	if _, err := PowerLawForMean(10, 2.5, 50); err == nil {
		t.Error("expected error for unreachable mean")
	}
	if _, err := PowerLawForMean(10, 2.5, 0.5); err == nil {
		t.Error("expected error for mean below 1")
	}
}

func TestPowerLawMeanMonotoneInCutoff(t *testing.T) {
	// Property used by the PowerLawForMean early-exit: the bounded mean is
	// increasing in the lower cutoff.
	prev := 0.0
	for min := 1; min <= 50; min++ {
		pl, err := NewPowerLaw(min, 60, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Mean() <= prev {
			t.Fatalf("mean not increasing at min=%d: %v <= %v", min, pl.Mean(), prev)
		}
		prev = pl.Mean()
	}
}

func TestPowerLawCDFProperty(t *testing.T) {
	// Property test: any valid parametrization yields samples in support and
	// an analytic mean inside [min, max].
	f := func(minSeed, widthSeed uint8, alphaSeed uint8) bool {
		min := int(minSeed%20) + 1
		max := min + int(widthSeed%50)
		alpha := 0.5 + float64(alphaSeed%40)/10
		pl, err := NewPowerLaw(min, max, alpha)
		if err != nil {
			return false
		}
		// Tolerance: a degenerate support [d, d] computes mean as
		// (d*w)/w, which can round a few ulps past d.
		if pl.Mean() < float64(min)-1e-9 || pl.Mean() > float64(max)+1e-9 {
			return false
		}
		r := New(int64(minSeed)*7919 + int64(widthSeed))
		for i := 0; i < 50; i++ {
			d := pl.Sample(r)
			if d < min || d > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// edgeSampler returns a sampler over [1, n] whose CDF entries sit one ulp
// below the bucket edges k/n of an n-bucket guide: cdf[i] is the float
// just below fl((i+1)/n). For some k that float times n still rounds to
// k, so a guide of n buckets that starts bucket k at fl(k/n) would start
// past the answer for u = cdf[k-1].
func edgeSampler(t *testing.T, n int) *PowerLaw {
	t.Helper()
	cdf := make([]float64, n)
	for i := range cdf {
		cdf[i] = math.Nextafter(float64(i+1)/float64(n), 0)
	}
	cdf[n-1] = 1
	p := &PowerLaw{min: 1, max: n, alpha: 1, cdf: cdf}
	p.buildGuide()
	return p
}

// TestPowerLawSampleMatchesSearch checks that the guide-table draw returns
// exactly the index sort.SearchFloat64s does, clamped to the table, at
// the boundaries where rounding could make the two differ and on random
// draws, and that Sample spends one Float64 per value.
func TestPowerLawSampleMatchesSearch(t *testing.T) {
	bench, err := PowerLawForMean(2000, 2.5, 20) // cmd/benchrun's degree law
	if err != nil {
		t.Fatal(err)
	}
	samplers := map[string]*PowerLaw{"benchmark": bench, "edges-3000": edgeSampler(t, 3000), "edges-7": edgeSampler(t, 7)}
	for _, sup := range [][2]int{{1, 1}, {1, 2}, {1, 3}, {4, 8}, {2, 100}, {1, 1000}} {
		for _, alpha := range []float64{0.5, 2.5} {
			p, err := NewPowerLaw(sup[0], sup[1], alpha)
			if err != nil {
				t.Fatal(err)
			}
			samplers[fmt.Sprintf("[%d,%d]^-%v", sup[0], sup[1], alpha)] = p
		}
	}
	for name, p := range samplers {
		n := len(p.cdf)
		search := func(u float64) int {
			return min(sort.SearchFloat64s(p.cdf, u), n-1)
		}
		fails := 0
		check := func(what string, u float64) {
			if u < 0 || u >= 1 || fails > 5 {
				return
			}
			if got, want := p.index(u), search(u); got != want {
				fails++
				t.Errorf("%s: %s u=%v (%#x): guide index %d, SearchFloat64s %d",
					name, what, u, math.Float64bits(u), got, want)
			}
		}
		around := func(what string, x float64) {
			check(what, math.Nextafter(x, 0))
			check(what, x)
			check(what, math.Nextafter(x, 2))
		}
		check("u=0", 0)
		check("u=1-2^-53", math.Nextafter(1, 0))
		for _, c := range p.cdf {
			around("cdf entry", c)
		}
		// k/n for the support's size and for the guide's bucket count.
		for _, m := range []int{n, len(p.guide)} {
			for k := 0; k <= m; k++ {
				around(fmt.Sprintf("k/n, n=%d", m), float64(k)/float64(m))
			}
		}
		draws := 100_000
		if name == "benchmark" || n <= 3 {
			draws = 1_000_000
		}
		r, ref := New(int64(n)), New(int64(n))
		for i := 0; i < draws && fails <= 5; i++ {
			if got, want := p.Sample(r), p.min+search(ref.Float64()); got != want {
				fails++
				t.Errorf("%s: draw %d: Sample %d, SearchFloat64s %d", name, i, got, want)
			}
		}
	}
}

// referencePowerLaw is the law as built with one CDF per law: weights
// summed in ascending value order into a running total, the CDF divided
// by the total afterwards.
func referencePowerLaw(min, max int, alpha float64) (cdf []float64, mean float64) {
	cdf = make([]float64, max-min+1)
	var total, weightedTotal float64
	for i := range cdf {
		d := float64(min + i)
		w := math.Pow(d, -alpha)
		total += w
		weightedTotal += d * w
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[len(cdf)-1] = 1
	return cdf, weightedTotal / total
}

// TestPowerLawForMeanMatchesReference checks that the one-table sweep
// picks the cutoff a sweep building every candidate law picks, and that
// the winner's cutoff, every CDF entry and the mean are bit-equal to that
// law's, on the benchmark's capped support, the uncapped 100k support
// (goldenhash, the scenario presets), and small supports.
func TestPowerLawForMeanMatchesReference(t *testing.T) {
	cases := []struct {
		max         int
		alpha, mean float64
	}{
		{2000, 2.5, 20}, {99_999, 2.5, 20},
		{1, 2.5, 1}, {2, 2.5, 1.2}, {3, 2.5, 2.9}, {10, 2.5, 3}, {10, 2.5, 10},
		{40, 1.5, 7}, {50, 0.5, 30}, {500, 2.5, 20}, {7, 3.5, 1},
	}
	for _, c := range cases {
		wantMin, wantGap := 0, math.Inf(1)
		var wantCDF []float64
		var wantMean float64
		for min := 1; min <= c.max; min++ {
			cdf, mean := referencePowerLaw(min, c.max, c.alpha)
			if gap := math.Abs(mean - c.mean); gap < wantGap {
				wantMin, wantGap, wantCDF, wantMean = min, gap, cdf, mean
			}
			if mean > c.mean {
				break
			}
		}
		name := fmt.Sprintf("max %d alpha %v mean %v", c.max, c.alpha, c.mean)
		pl, err := PowerLawForMean(c.max, c.alpha, c.mean)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Min() != wantMin || pl.Max() != c.max || len(pl.cdf) != len(wantCDF) {
			t.Fatalf("%s: support [%d, %d] with %d CDF entries, want [%d, %d] with %d",
				name, pl.Min(), pl.Max(), len(pl.cdf), wantMin, c.max, len(wantCDF))
		}
		if math.Float64bits(pl.Mean()) != math.Float64bits(wantMean) {
			t.Errorf("%s: mean %v, want %v", name, pl.Mean(), wantMean)
		}
		for i, x := range pl.cdf {
			if math.Float64bits(x) != math.Float64bits(wantCDF[i]) {
				t.Fatalf("%s: cdf[%d] = %v, want %v", name, i, x, wantCDF[i])
			}
		}
	}
}

// benchPowerLawForMean fits cmd/benchrun's degree law (alpha 2.5, mean
// 20) on the support [1, max].
func benchPowerLawForMean(b *testing.B, max int) {
	for i := 0; i < b.N; i++ {
		if _, err := PowerLawForMean(max, 2.5, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerLawForMeanCapped(b *testing.B)   { benchPowerLawForMean(b, 2000) }
func BenchmarkPowerLawForMeanUncapped(b *testing.B) { benchPowerLawForMean(b, 99_999) }

// BenchmarkPowerLawSample draws from cmd/benchrun's degree law (alpha 2.5,
// mean 20, support capped at 2000), one draw per op.
func BenchmarkPowerLawSample(b *testing.B) {
	pl, err := PowerLawForMean(2000, 2.5, 20)
	if err != nil {
		b.Fatal(err)
	}
	r := New(1)
	sink := 0
	for b.Loop() {
		sink += pl.Sample(r)
	}
	_ = sink
}
