// Package xrand provides deterministic random-number generation and the
// distribution samplers used across the creditp2p simulators and analytics.
//
// Every stochastic component in this repository draws randomness through an
// *xrand.RNG seeded explicitly, so that simulations, experiments and tests
// are reproducible bit-for-bit. The package wraps math/rand with the
// distributions the paper's model needs: exponential service times, Poisson
// arrivals and chunk prices, bounded power-law (Zipf-like) degrees for
// scale-free overlays, and O(1) weighted sampling for credit routing.
package xrand

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// RNG is a deterministic random number generator. It is not safe for
// concurrent use; simulators are single-threaded by design and tests that
// need parallelism create one RNG per goroutine.
//
// Every stream is positionable: the generator counts source draws, so its
// exact position is (seed, draws) and a checkpoint can fast-forward a fresh
// stream to the same point (see state.go). This works because every sampler
// in this package and every math/rand.Rand method funnels through the
// single underlying source, each call advancing it by exactly one step.
type RNG struct {
	src  *rand.Rand
	cs   *countedSource
	seed int64
}

// countedSource wraps the math/rand source, counting draws so the stream
// position can be captured and replayed.
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countedSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.draws = 0
}

// New returns an RNG seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *RNG {
	cs := &countedSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{src: rand.New(cs), cs: cs, seed: seed}
}

// Split derives a new, independent RNG from the current stream. It is used
// to hand sub-components their own reproducible streams so that adding draws
// in one component does not perturb another.
func (r *RNG) Split() *RNG {
	return New(r.src.Int63())
}

// Float64 returns a uniform sample from [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample from {0, ..., n-1}. n must be positive.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Exponential returns a sample from the exponential distribution with the
// given rate (mean 1/rate). It is the service/inter-arrival time primitive
// of the Jackson-network simulators. rate must be positive.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("xrand: non-positive exponential rate %v", rate))
	}
	// Inverse CDF on (0,1]; 1-Float64() avoids log(0).
	return -math.Log(1-r.src.Float64()) / rate
}

// Poisson returns a sample from the Poisson distribution with the given
// mean. Knuth's product method is used for small means and Hörmann's PTRS
// transformed-rejection method for large means, so sampling stays O(1)-ish
// across the parameter range used by the experiments. mean must be
// non-negative.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic(fmt.Sprintf("xrand: invalid Poisson mean %v", mean))
	case mean == 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

func (r *RNG) poissonKnuth(mean float64) int {
	limit := math.Exp(-mean)
	k := 0
	p := r.src.Float64()
	for p > limit {
		k++
		p *= r.src.Float64()
	}
	return k
}

// poissonPTRS implements Hörmann's PTRS algorithm ("The transformed
// rejection method for generating Poisson random variables", 1993). Valid
// for mean >= 10; we only call it for mean >= 30.
func (r *RNG) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.src.Float64() - 0.5
		v := r.src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(mean)-mean-lg {
			return int(k)
		}
	}
}

// Pareto returns a sample from the (continuous) Pareto distribution with
// scale xm > 0 and shape alpha > 0: P(X > x) = (xm/x)^alpha for x >= xm.
// Heavy-tailed peer bandwidths and lifespans use it.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("xrand: invalid Pareto parameters xm=%v alpha=%v", xm, alpha))
	}
	return xm / math.Pow(1-r.src.Float64(), 1/alpha)
}

// LogNormal returns a sample of exp(N(mu, sigma^2)). Heterogeneous spending
// rates in the asymmetric-utilization experiments are drawn from it.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// NormFloat64 returns a standard normal sample.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Uniform returns a uniform sample from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Binomial returns a sample from the Binomial(n, p) distribution — the
// number of successes in n independent Bernoulli(p) trials — in far fewer
// than n draws. The taxation policy engine uses it to collect a Rate
// fraction of an income payment with one draw instead of the per-credit
// Bernoulli loop (which is O(amount) and dominates large payments).
//
// Three regimes, all sampling the exact distribution:
//
//   - tiny n: the literal Bernoulli loop (cheapest at n < 10);
//   - small n*q (q = min(p, 1-p)): the first-waiting-time (geometric
//     inversion) method, O(n*q) expected;
//   - n*q >= 10: Hörmann's BTRD transformed-rejection algorithm ("The
//     generation of binomial random variates", 1993), O(1) expected.
//
// The symmetry Binomial(n, p) = n - Binomial(n, 1-p) folds p > 1/2 into the
// cheap half. The exact-distribution tests pin each regime against the
// Bernoulli loop by chi-square.
func (r *RNG) Binomial(n int64, p float64) int64 {
	switch {
	case n < 0 || math.IsNaN(p) || p < 0 || p > 1:
		panic(fmt.Sprintf("xrand: invalid Binomial parameters n=%d p=%v", n, p))
	case n == 0 || p == 0:
		return 0
	case p == 1:
		return n
	case p > 0.5:
		return n - r.Binomial(n, 1-p)
	case n < 10:
		var k int64
		for i := int64(0); i < n; i++ {
			if r.src.Float64() < p {
				k++
			}
		}
		return k
	case float64(n)*p < 10:
		return r.binomialInversion(n, p)
	default:
		return r.binomialBTRD(n, p)
	}
}

// binomialInversion counts successes by skipping over failure runs: the gap
// to the next success is geometric, so the expected number of iterations is
// n*p + 1. Requires 0 < p <= 1/2.
func (r *RNG) binomialInversion(n int64, p float64) int64 {
	q := math.Log1p(-p)
	var k, i int64
	for {
		g := math.Log(1-r.src.Float64()) / q
		if g >= float64(n-i) {
			// The geometric skip clears the remaining trials. Checked on
			// the float side: for tiny p the skip exceeds int64 range and
			// the conversion below would wrap.
			return k
		}
		i += int64(g) + 1
		if i > n {
			return k
		}
		k++
	}
}

// binomialBTRD implements Hörmann's BTRD rejection sampler. Valid for
// n*p >= 10 with p <= 1/2; callers guarantee both.
func (r *RNG) binomialBTRD(n int64, p float64) int64 {
	fn := float64(n)
	q := 1 - p
	np := fn * p
	npq := np * q
	sq := math.Sqrt(npq)
	m := math.Floor((fn + 1) * p)
	rr := p / q
	nr := (fn + 1) * rr

	b := 1.15 + 2.53*sq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := np + 0.5
	alpha := (2.83 + 5.1/b) * sq
	vr := 0.92 - 4.2/b
	urvr := 0.86 * vr

	for {
		v := r.src.Float64()
		var u float64
		if v <= urvr {
			// The dominating triangular region: accepted immediately.
			u = v/vr - 0.43
			return int64(math.Floor((2*a/(0.5-math.Abs(u))+b)*u + c))
		}
		if v >= vr {
			u = r.src.Float64() - 0.5
		} else {
			u = v/vr - 0.93
			u = math.Copysign(0.5, u) - u
			v = r.src.Float64() * vr
		}
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > fn {
			continue
		}
		k := kf
		v = v * alpha / (a/(us*us) + b)
		km := math.Abs(k - m)
		if km <= 15 {
			// Evaluate f(k)/f(m) by the recursive ratio — exact and cheap
			// near the mode.
			f := 1.0
			if m < k {
				for i := m + 1; i <= k; i++ {
					f *= nr/i - rr
				}
			} else if m > k {
				for i := k + 1; i <= m; i++ {
					v *= nr/i - rr
				}
			}
			if v <= f {
				return int64(k)
			}
			continue
		}
		// Squeeze-accept/reject on the log scale far from the mode.
		v = math.Log(v)
		rho := (km / npq) * (((km/3+0.625)*km+1.0/6)/npq + 0.5)
		t := -km * km / (2 * npq)
		if v < t-rho {
			return int64(k)
		}
		if v > t+rho {
			continue
		}
		nm := fn - m + 1
		h := (m+0.5)*math.Log((m+1)/(rr*nm)) + stirlingCorrection(m) + stirlingCorrection(fn-m)
		nk := fn - k + 1
		if v <= h+(fn+1)*math.Log(nm/nk)+(k+0.5)*math.Log(nk*rr/(k+1))-stirlingCorrection(k)-stirlingCorrection(fn-k) {
			return int64(k)
		}
	}
}

// stirlingCorrection returns log(k!) - [Stirling series], the delta term of
// BTRD's exact log-pmf comparison: a table below 10, the asymptotic
// expansion above.
func stirlingCorrection(k float64) float64 {
	if k < 10 {
		return stirlingTable[int(k)]
	}
	kk := (k + 1) * (k + 1)
	return (1.0/12 - (1.0/360-1.0/1260/kk)/kk) / (k + 1)
}

var stirlingTable = [10]float64{
	0.08106146679532726,
	0.04134069595540929,
	0.02767792568499834,
	0.02079067210376509,
	0.01664469118982119,
	0.01387612882307075,
	0.01189670994589177,
	0.01041126526197209,
	0.009255462182712733,
	0.008330563433362871,
}

// ErrNoWeights is returned when a weighted sampler is built from an empty or
// all-zero weight vector.
var ErrNoWeights = errors.New("xrand: no positive weights")

// SampleWeighted draws an index i with probability weights[i]/sum(weights)
// by linear scan, for distributions that change on every draw (e.g.
// availability weights under churn). It returns ErrNoWeights when no
// weight is positive.
func SampleWeighted(r *RNG, weights []float64) (int, error) {
	var total float64
	for i, w := range weights {
		if w < 0 || w != w {
			return 0, fmt.Errorf("xrand: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return 0, ErrNoWeights
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i, nil
		}
	}
	// Rounding may leave u marginally above the accumulated total; return
	// the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, ErrNoWeights
}
