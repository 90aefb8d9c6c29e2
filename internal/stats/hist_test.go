package stats

import (
	"testing"

	"creditp2p/internal/xrand"
)

// sortGini recomputes the Gini from scratch through the sorting path.
func sortGini(t *testing.T, balances []int64) (float64, bool) {
	t.Helper()
	if len(balances) == 0 {
		return 0, false
	}
	g, _, err := GiniIntsInPlace(balances, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, true
}

// checkHistGini fails the test unless the Gini read off hists equals the
// sorted recomputation over balances exactly (==, not within epsilon) and
// the histograms' Sums count the same members and credits.
func checkHistGini(t *testing.T, step string, balances []int64, hists ...BalanceHist) {
	t.Helper()
	want, wantOK := sortGini(t, balances)
	got, ok := HistGini(hists...)
	if got != want || ok != wantOK {
		t.Fatalf("%s: histogram Gini %v (ok %v) != sorted %v (ok %v) over %d members", step, got, ok, want, wantOK, len(balances))
	}
	var n, s int64
	for _, h := range hists {
		c, m := h.Sums()
		n += c
		s += m
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	if n != int64(len(balances)) || s != total {
		t.Fatalf("%s: Sums = %d members / %d credits, want %d / %d", step, n, s, len(balances), total)
	}
}

// TestIncGiniEmptyAndZero covers the incremental (histogram) Gini sampler's
// edge cases: an empty population (no Gini), a single member, and an
// all-zero population (Gini 0).
func TestIncGiniEmptyAndZero(t *testing.T) {
	var empty BalanceHist
	checkHistGini(t, "empty", nil, empty)
	checkHistGini(t, "no histograms", nil)

	var single BalanceHist
	single.Add(7)
	checkHistGini(t, "single member", []int64{7}, single)
	single.Move(7, 0)
	checkHistGini(t, "single member at zero", []int64{0}, single)

	var zeros BalanceHist
	for i := 0; i < 5; i++ {
		zeros.Add(0)
	}
	checkHistGini(t, "all zero", []int64{0, 0, 0, 0, 0}, zeros)
	if g, ok := HistGini(zeros); !ok || g != 0 {
		t.Errorf("all-zero Gini = %v (ok %v), want 0", g, ok)
	}
}

// TestIncGiniMatchesSort is the bit-identity contract the simulators'
// Result series rest on: after every mutation of a randomized balance
// population — ±1 and ±k moves, joins, departs, domain growth far past
// the initial buckets — the histogram Gini must equal the sorted
// recomputation exactly, both over one histogram and over the same
// population split across several (the sharded engine's per-lane layout).
func TestIncGiniMatchesSort(t *testing.T) {
	r := xrand.New(71)
	const lanes = 3
	var whole BalanceHist
	split := make([]BalanceHist, lanes)
	var balances []int64
	var laneOf []int
	add := func(v int64) {
		balances = append(balances, v)
		laneOf = append(laneOf, r.Intn(lanes))
		whole.Add(v)
		split[laneOf[len(laneOf)-1]].Add(v)
	}
	move := func(i int, v int64) {
		whole.Move(balances[i], v)
		split[laneOf[i]].Move(balances[i], v)
		balances[i] = v
	}
	for i := 0; i < 40; i++ {
		add(int64(r.Intn(30)))
	}
	checkHistGini(t, "initial", balances, whole)
	for step := 0; step < 3000; step++ {
		switch r.Intn(10) {
		case 0: // join
			add(int64(r.Intn(50)))
		case 1: // depart, burning the balance
			if len(balances) > 1 {
				i := r.Intn(len(balances))
				whole[balances[i]]--
				split[laneOf[i]][balances[i]]--
				last := len(balances) - 1
				balances[i], laneOf[i] = balances[last], laneOf[last]
				balances, laneOf = balances[:last], laneOf[:last]
			}
		case 2: // ±k: a windfall far beyond the current domain, or a debit
			i := r.Intn(len(balances))
			if r.Intn(2) == 0 {
				move(i, balances[i]+int64(r.Intn(5000)))
			} else if balances[i] > 0 {
				move(i, balances[i]-int64(r.Intn(int(balances[i])+1)))
			}
		default: // ±1: a one-credit transfer, the simulators' hot case
			from, to := r.Intn(len(balances)), r.Intn(len(balances))
			if from == to || balances[from] == 0 {
				continue
			}
			move(from, balances[from]-1)
			move(to, balances[to]+1)
		}
		if step%50 == 0 {
			checkHistGini(t, "random step", balances, whole)
			checkHistGini(t, "random step, split", balances, split...)
		}
	}
	checkHistGini(t, "final", balances, whole)
	checkHistGini(t, "final, split", balances, split...)
}

// TestIncGiniLargeScaleExactness: at 20k members the aggregates D and n·S
// stay far below 2^53, so the final float division must still match the
// sorting path exactly.
func TestIncGiniLargeScaleExactness(t *testing.T) {
	r := xrand.New(5)
	var h BalanceHist
	balances := make([]int64, 20000)
	for i := range balances {
		balances[i] = int64(r.Intn(4000))
		h.Add(balances[i])
	}
	checkHistGini(t, "20k members", balances, h)
}

func BenchmarkHistMove(b *testing.B) {
	r := xrand.New(9)
	var h BalanceHist
	balances := make([]int64, 100_000)
	for i := range balances {
		balances[i] = int64(r.Intn(200))
		h.Add(balances[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := r.Intn(len(balances)), r.Intn(len(balances))
		if from == to || balances[from] == 0 {
			continue
		}
		h.Move(balances[from], balances[from]-1)
		balances[from]--
		h.Move(balances[to], balances[to]+1)
		balances[to]++
	}
}

func BenchmarkHistGini(b *testing.B) {
	r := xrand.New(9)
	var h BalanceHist
	for i := 0; i < 100_000; i++ {
		h.Add(int64(r.Intn(200)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HistGini(h)
	}
}
