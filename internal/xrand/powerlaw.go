package xrand

import (
	"fmt"
	"math"
	"math/bits"
)

// PowerLaw samples integers D in [Min, Max] with P(D) proportional to
// D^-Alpha. The paper's scale-free overlays draw peer degrees from such a
// bounded power law with shape Alpha = 2.5 and a Min chosen so that the mean
// degree is 20 (Sec. VI).
//
// Sampling inverts a precomputed CDF table from a guide table (the
// cutpoint method): a draw u starts at the entry guide[floor(u·m)] and
// scans upward, which is O(1) expected steps since there are at least as
// many guide entries m as CDF entries.
type PowerLaw struct {
	min, max int
	alpha    float64
	cdf      []float64 // cdf[i] = P(D <= min+i)
	// guide[k] is the smallest i with cdf[i] >= k/m, for m = len(guide), a
	// power of two: u·m and k/m are then exact, so every u in
	// [k/m, (k+1)/m) has its answer at or above guide[k].
	guide []int32
	mean  float64
}

// NewPowerLaw builds a bounded discrete power-law sampler. It returns an
// error when the support is empty or alpha is not a finite positive number.
func NewPowerLaw(min, max int, alpha float64) (*PowerLaw, error) {
	p, err := newPowerLaw(min, max, alpha)
	if err != nil {
		return nil, err
	}
	p.buildGuide()
	return p, nil
}

// newPowerLaw builds the CDF table and the mean but not the guide table.
func newPowerLaw(min, max int, alpha float64) (*PowerLaw, error) {
	if err := checkPowerLaw(min, max, alpha); err != nil {
		return nil, err
	}
	return fromWeights(min, alpha, powerWeights(min, max, alpha)), nil
}

// checkPowerLaw rejects an empty support and a shape that is not a finite
// positive number.
func checkPowerLaw(min, max int, alpha float64) error {
	if min < 1 || max < min {
		return fmt.Errorf("xrand: invalid power-law support [%d, %d]", min, max)
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return fmt.Errorf("xrand: invalid power-law shape %v", alpha)
	}
	return nil
}

// powerWeights returns the unnormalised weights w[i] = (min+i)^-alpha of
// the support [min, max].
func powerWeights(min, max int, alpha float64) []float64 {
	w := make([]float64, max-min+1)
	for i := range w {
		w[i] = math.Pow(float64(min+i), -alpha)
	}
	return w
}

// weightSums returns the total of the weights w of min, min+1, ... and
// their value-weighted total, summed in ascending value order: the
// normalisation and mean of every law built from them.
func weightSums(min int, w []float64) (total, weighted float64) {
	for i, x := range w {
		total += x
		weighted += float64(min+i) * x
	}
	return total, weighted
}

// fromWeights builds the law on [min, min+len(w)) from its weights,
// turning w into the CDF in place.
func fromWeights(min int, alpha float64, w []float64) *PowerLaw {
	total, weighted := weightSums(min, w)
	run := 0.0
	for i, x := range w {
		run += x
		w[i] = run / total
	}
	w[len(w)-1] = 1 // guard against rounding
	return &PowerLaw{
		min:   min,
		max:   min + len(w) - 1,
		alpha: alpha,
		cdf:   w,
		mean:  weighted / total,
	}
}

// Mean returns the exact mean of the bounded distribution.
func (p *PowerLaw) Mean() float64 { return p.mean }

// Min returns the smallest value in the support.
func (p *PowerLaw) Min() int { return p.min }

// Max returns the largest value in the support.
func (p *PowerLaw) Max() int { return p.max }

// Alpha returns the shape parameter.
func (p *PowerLaw) Alpha() float64 { return p.alpha }

// buildGuide fills the guide table, with the smallest power of two no
// smaller than the support as its length.
func (p *PowerLaw) buildGuide() {
	m := 1 << bits.Len(uint(len(p.cdf)-1))
	p.guide = make([]int32, m)
	i := 0
	for k := range p.guide {
		u := float64(k) / float64(m)
		for p.cdf[i] < u {
			i++
		}
		p.guide[k] = int32(i)
	}
}

// Sample draws one value.
func (p *PowerLaw) Sample(r *RNG) int { return p.min + p.index(r.Float64()) }

// index returns the smallest i with cdf[i] >= u for u in [0, 1): the
// index sort.SearchFloat64s(p.cdf, u) returns. cdf[len-1] is 1, so the
// scan stops inside the table.
func (p *PowerLaw) index(u float64) int {
	i := int(p.guide[int(u*float64(len(p.guide)))])
	for p.cdf[i] < u {
		i++
	}
	return i
}

// PowerLawForMean searches for the bounded power law D^-alpha on
// [min, max] whose mean is closest to targetMean, by sweeping the lower
// bound min upward from 1. The paper fixes alpha=2.5, max, and a mean of 20;
// the free parameter is the cutoff. It returns an error if even min=max
// cannot reach targetMean.
func PowerLawForMean(max int, alpha, targetMean float64) (*PowerLaw, error) {
	if targetMean < 1 || float64(max) < targetMean {
		return nil, fmt.Errorf("xrand: target mean %v outside [1, %d]", targetMean, max)
	}
	if err := checkPowerLaw(1, max, alpha); err != nil {
		return nil, err
	}
	// One weight table serves every candidate cutoff: a candidate's mean
	// sums its suffix of the table in the order newPowerLaw sums it, so
	// it is the mean that law would report, and only the winner's CDF is
	// built.
	w := powerWeights(1, max, alpha)
	best, bestGap := 0, math.Inf(1)
	for min := 1; min <= max; min++ {
		total, weighted := weightSums(min, w[min-1:])
		mean := weighted / total
		if gap := math.Abs(mean - targetMean); gap < bestGap {
			best, bestGap = min, gap
		}
		// Mean is monotone increasing in the lower cutoff; once we have
		// passed the target the gap only grows.
		if mean > targetMean {
			break
		}
	}
	if best == 0 {
		return nil, fmt.Errorf("xrand: no power law on [1, %d] reaches mean %v", max, targetMean)
	}
	pl := fromWeights(best, alpha, w[best-1:])
	pl.buildGuide()
	return pl, nil
}
