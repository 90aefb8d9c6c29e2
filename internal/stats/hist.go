package stats

import "creditp2p/internal/pad"

// BalanceHist is a histogram over a population of non-negative integer
// credit balances: h[b] members hold exactly b credits. Both simulation
// engines mirror every live-peer balance change into one — Move is two
// counter updates, O(1) per credit transfer — and read the wealth Gini off
// it with HistGini in one ascending walk, O(max balance) per sample with
// no sort and no per-peer pass.
//
// Memory is O(max balance seen so far): the domain grows by doubling and
// never shrinks, so a market whose richest peer ever held B credits costs
// ~2B words regardless of population size.
type BalanceHist []int64

// MaxCreditStep bounds the credits a configuration may put into one
// balance in one step: an initial endowment, a newcomer grant, a per-epoch
// injection. A BalanceHist costs 8 bytes per credit of the largest balance
// it has seen, per lane, so an unbounded value asks the runtime for
// terabytes and kills the process with an out-of-memory fatal error that
// no caller can recover; constructors refuse larger values instead.
const MaxCreditStep = 1 << 24

// Grow widens h to cover balance b, at least doubling (and to no fewer
// than 64 buckets) so growth amortizes away.
func (h *BalanceHist) Grow(b int64) {
	for int64(len(*h)) <= b {
		nw := int64(len(*h)) * 2
		if nw < 64 {
			nw = 64
		}
		if nw <= b {
			nw = b + 1
		}
		// Whole pad.Block units: a sharded lane moves its histogram on
		// every purchase, so the buckets must not share a cache line with
		// another lane's data.
		t := BalanceHist(pad.Make[int64](int(nw)))
		copy(t, *h)
		*h = t
	}
}

// Add counts one member holding balance b.
func (h *BalanceHist) Add(b int64) {
	h.Grow(b)
	(*h)[b]++
}

// Move mirrors one member's balance changing from before to after.
func (h *BalanceHist) Move(before, after int64) {
	(*h)[before]--
	h.Grow(after)
	(*h)[after]++
}

// Sums returns the member count and the total balance mass.
func (h BalanceHist) Sums() (count, mass int64) {
	for v, c := range h {
		count += c
		mass += c * int64(v)
	}
	return count, mass
}

// HistGini returns the exact Gini index of the union of the histograms
// (the sharded engine passes one per lane) by a single ascending walk:
// with cumulative count n< and mass m< below value v, each of the c_v
// members at v contributes v·n< − m< to the pairwise-difference sum
// D = Σ_{i<j} |x_i − x_j|, and G = D / (n·S). All accumulation is exact
// int64, and the final division is the one GiniInPlace performs — its
// float sums are exact for integer data below 2^53 — so the result equals
// sorting the balances and calling GiniInPlace bit for bit. ok is false for
// an empty population; an all-zero one yields 0.
func HistGini(hists ...BalanceHist) (g float64, ok bool) {
	maxLen := 0
	for _, h := range hists {
		if len(h) > maxLen {
			maxLen = len(h)
		}
	}
	var d, n, total int64
	for v := 0; v < maxLen; v++ {
		var c int64
		for _, h := range hists {
			if v < len(h) {
				c += h[v]
			}
		}
		if c == 0 {
			continue
		}
		d += c * (int64(v)*n - total)
		n += c
		total += c * int64(v)
	}
	if n == 0 {
		return 0, false
	}
	if total == 0 {
		return 0, true
	}
	return float64(d) / (float64(n) * float64(total)), true
}
