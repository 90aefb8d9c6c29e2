package stats

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // population variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
	P90    float64
	P99    float64
}

// Summarize computes descriptive statistics. It returns ErrEmpty for an
// empty sample. The input is not modified.
func Summarize(values []float64) (Summary, error) {
	n := len(values)
	if n == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, n)
	copy(sorted, values)
	sort.Float64s(sorted)

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0 // rounding
	}
	return Summary{
		N:      n,
		Mean:   mean,
		Var:    variance,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		Max:    sorted[n-1],
		Median: Quantile(sorted, 0.5),
		P90:    Quantile(sorted, 0.9),
		P99:    Quantile(sorted, 0.99),
	}, nil
}

// Quantile returns the q-quantile (0<=q<=1) of an ascending-sorted sample
// using linear interpolation between order statistics. It returns NaN for an
// empty sample.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
