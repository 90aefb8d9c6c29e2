package des

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomLanes builds n outboxes holding total events drawn on a coarse
// time grid (so duplicate times across and within lanes are common) and
// routed to lanes at random, so some lanes end up empty. Each buffer is
// filled through Add, the same construction path the kernel uses, and is
// therefore canonically ordered. Per-source Seq counters keep the
// (Time, Src, Seq) key set duplicate-free, matching the kernel's "one
// effect per (Time, Seq) per peer" invariant.
func randomLanes(rng *rand.Rand, n, total int) []*MergeBuffer {
	lanes := make([]*MergeBuffer, n)
	for i := range lanes {
		lanes[i] = &MergeBuffer{}
	}
	seq := map[[2]int64]uint32{}
	for i := 0; i < total; i++ {
		t := float64(rng.Intn(16)) / 4 // coarse grid: many exact ties
		src := int32(rng.Intn(8))
		k := [2]int64{int64(t * 4), int64(src)}
		lanes[rng.Intn(n)].Add(XEvent{
			Time:   t,
			Src:    src,
			Dst:    int32(rng.Intn(64)),
			Seq:    seq[k],
			Amount: int64(rng.Intn(100)),
			Kind:   uint16(rng.Intn(4)),
		})
		seq[k]++
	}
	return lanes
}

// runsOf returns the lanes' buffered runs.
func runsOf(lanes []*MergeBuffer) [][]XEvent {
	runs := make([][]XEvent, len(lanes))
	for i, b := range lanes {
		runs[i] = b.Events()
	}
	return runs
}

// checkCursor drains a pointer cursor over runs and
// requires the sort-based reference's sequence, every returned pointer to
// alias its event in place inside a run, and Ahead(d) to name the event d
// places further down the same run, or nil past its end.
func checkCursor(t *testing.T, label string, next func() *XEvent, ahead func(int) *XEvent, runs [][]XEvent, want []XEvent) {
	t.Helper()
	type at struct{ run, i int }
	where := map[*XEvent]at{}
	for r, run := range runs {
		for i := range run {
			where[&run[i]] = at{r, i}
		}
	}
	got := 0
	for x := next(); x != nil; x = next() {
		if got >= len(want) {
			t.Fatalf("%s: cursor produced more than the %d events", label, len(want))
		}
		if *x != want[got] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, got, *x, want[got])
		}
		pos, ok := where[x]
		if !ok {
			t.Fatalf("%s: event %d is a copy, not a pointer into a run", label, got)
		}
		for _, d := range []int{1, 2, 8} {
			var w *XEvent
			if j := pos.i + d; j < len(runs[pos.run]) {
				w = &runs[pos.run][j]
			}
			if y := ahead(d); y != w {
				t.Fatalf("%s: Ahead(%d) after event %d (run %d, index %d) = %p, want %p", label, d, got, pos.run, pos.i, y, w)
			}
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("%s: cursor produced %d events, want %d", label, got, len(want))
	}
}

// checkMergeParity checks both merge paths over the lanes against the
// sort-based reference: Merge and the loser tree's in-place cursor.
func checkMergeParity(t *testing.T, label string, m *Merger, lanes []*MergeBuffer) {
	t.Helper()
	runs := runsOf(lanes)
	want := Collect(nil, lanes)
	got := m.Merge(nil, runs)
	if len(got) != len(want) {
		t.Fatalf("%s: merged %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: merged[%d] = %+v, want %+v", label, i, got[i], want[i])
		}
	}
	m.Init(runs)
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d after Init, want %d", label, m.Len(), len(want))
	}
	checkCursor(t, label+" cursor", m.Next, m.Ahead, runs, want)
}

// TestMergerMatchesCollect is the k-way/sort parity property: over many
// randomized lane fillings — exact time ties across and within peers,
// empty lanes, K in {1, 2, 3, 5, 8} runs (crossing the power-of-two
// padding boundaries) — Merge and the loser tree's in-place cursor must
// produce byte-for-byte the sequence of the sort-based reference, the
// cursor handing out pointers into the runs.
func TestMergerMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m Merger
	for _, k := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 200; trial++ {
			total := rng.Intn(200)
			if trial == 0 {
				total = 0 // every run empty
			}
			lanes := randomLanes(rng, k, total)
			checkMergeParity(t, fmt.Sprintf("K=%d trial %d (total %d)", k, trial, total), &m, lanes)
		}
	}
}

// TestMergerAllEmpty covers the degenerate windows: no runs at all, and
// runs that are all empty.
func TestMergerAllEmpty(t *testing.T) {
	var m Merger
	if got := m.Merge(nil, nil); len(got) != 0 {
		t.Fatalf("merge of no runs = %+v", got)
	}
	if got := m.Merge(nil, [][]XEvent{{}, {}, {}}); len(got) != 0 {
		t.Fatalf("merge of empty runs = %+v", got)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after empty merge", m.Len())
	}
}

// TestMergeBufferAddFixup pins the Add fix-up: appends that sort before
// the buffered tail (same-time emissions of distinct same-lane peers
// arriving in scheduler order, not peer order) are walked back so the
// buffer stays canonically ordered — the k-way merge's precondition.
func TestMergeBufferAddFixup(t *testing.T) {
	b := &MergeBuffer{}
	b.Add(XEvent{Time: 1, Src: 5, Seq: 0})
	b.Add(XEvent{Time: 1, Src: 2, Seq: 1}) // ties on time, sorts before Src 5
	b.Add(XEvent{Time: 1, Src: 2, Seq: 0}) // sorts before its own Seq 1
	b.Add(XEvent{Time: 2, Src: 0, Seq: 0}) // in-order fast path
	want := []XEvent{
		{Time: 1, Src: 2, Seq: 0},
		{Time: 1, Src: 2, Seq: 1},
		{Time: 1, Src: 5, Seq: 0},
		{Time: 2, Src: 0, Seq: 0},
	}
	got := b.Events()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ev[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMergerSteadyStateZeroAlloc pins the recycling contract: after the
// first window at a given lane count, repeated Merge calls into a reused
// dst allocate nothing.
func TestMergerSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lanes := randomLanes(rng, 6, 300)
	runs := make([][]XEvent, len(lanes))
	for i, b := range lanes {
		runs[i] = b.Events()
	}
	var m Merger
	dst := m.Merge(nil, runs) // warm: sizes the tree and dst
	allocs := testing.AllocsPerRun(10, func() {
		dst = m.Merge(dst[:0], runs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Merge allocates %v per call, want 0", allocs)
	}
}

// TestMergeBufferTrim checks the high-water shrink: a spike followed by
// quiet windows releases the slack, while steady traffic never
// reallocates.
func TestMergeBufferTrim(t *testing.T) {
	b := &MergeBuffer{}
	for i := 0; i < 1000; i++ { // spike window
		b.Add(XEvent{Time: float64(i), Src: int32(i)})
	}
	b.Reset()
	spikeCap := cap(b.ev)
	for w := 0; w < 4; w++ { // quiet windows at ~20 events
		for i := 0; i < 20; i++ {
			b.Add(XEvent{Time: float64(i), Src: int32(i)})
		}
		b.Reset()
	}
	b.Trim() // hw is 1000 from the spike: keeps capacity
	if cap(b.ev) != spikeCap {
		t.Fatalf("first Trim reallocated: cap %d -> %d", spikeCap, cap(b.ev))
	}
	for w := 0; w < 4; w++ {
		for i := 0; i < 20; i++ {
			b.Add(XEvent{Time: float64(i), Src: int32(i)})
		}
		b.Reset()
	}
	b.Trim() // hw is now 20: 4x oversized, shrinks
	if cap(b.ev) >= spikeCap {
		t.Fatalf("second Trim kept spike capacity %d", cap(b.ev))
	}
	if cap(b.ev) < 20 {
		t.Fatalf("Trim cut below the high-water mark: cap %d", cap(b.ev))
	}
	// Steady traffic under the 64-element floor never reallocates.
	small := &MergeBuffer{}
	small.Add(XEvent{Time: 1})
	small.Reset()
	c := cap(small.ev)
	small.Trim()
	if cap(small.ev) != c {
		t.Fatalf("Trim reallocated a small buffer: %d -> %d", c, cap(small.ev))
	}
}

// FuzzMergeParity fuzzes the k-way/sort parity over generated lane
// fillings: the fuzzer picks the lane count, event count and draw seed,
// and any divergence between Merge or the loser tree's cursor and the
// sort-based reference fails.
func FuzzMergeParity(f *testing.F) {
	f.Add(int64(1), uint8(4), uint16(50))
	f.Add(int64(99), uint8(1), uint16(0))
	f.Add(int64(7), uint8(9), uint16(300))
	f.Add(int64(3), uint8(2), uint16(40))
	f.Fuzz(func(t *testing.T, seed int64, nLanes uint8, total uint16) {
		n := 1 + int(nLanes%12)
		rng := rand.New(rand.NewSource(seed))
		lanes := randomLanes(rng, n, int(total%1024))
		var m Merger
		checkMergeParity(t, fmt.Sprintf("K=%d", n), &m, lanes)
	})
}
