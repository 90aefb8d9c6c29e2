package des

import (
	"math"

	"creditp2p/internal/pad"
)

// XEvent is one buffered cross-lane effect in the sharded kernel: a credit
// delivery (or other workload-defined effect) or a peer's lifecycle delta,
// produced inside a shard lane's epoch window and applied at the next
// conservative-sync barrier.
// The canonical ordering key is (Time, Src, Seq): the virtual time the
// source peer emitted it, the source peer's global dense index, and the
// source's intra-instant sequence number for effects emitted at the exact
// same time (a streaming round buying several chunks at one tick). All
// three components are properties of the emitting peer alone — none
// depends on which lane the peer lives in — so the merged order, and with
// it the entire post-merge trajectory, is invariant under the shard count.
type XEvent struct {
	// Time is the virtual emission time.
	Time float64
	// Amount is the effect magnitude (credits for a transfer).
	Amount int64
	// Src is the emitting peer's global dense index.
	Src int32
	// Dst is the receiving peer's global dense index.
	Dst int32
	// Seq disambiguates effects one peer emits at the same instant, in
	// emission order.
	Seq uint32
	// Kind tags the effect type for workload dispatch.
	Kind uint16
}

// Before reports whether a sorts strictly before b in the canonical
// (Time, Src, Seq) order. Src breaks same-time ties between peers and Seq
// within one peer's instant; a peer emits at most one effect per
// (Time, Seq), so the order is total over any one epoch's buffer. It takes
// pointers and is small enough to inline, so the merges compare run heads
// in place.
func (a *XEvent) Before(b *XEvent) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// MergeBuffer accumulates the cross-lane effects of one epoch window and
// hands them back in canonical order at the barrier. Each lane appends to
// its own buffer during the window (no sharing, no locks); the coordinator
// then merges all lanes' buffers — through a Merger for lifecycle deltas
// and on the policy path, or bucket-at-a-time on the commutative no-policy
// path. Buffers keep their capacity across epochs (grow-once slabs), so
// steady-state operation allocates nothing; Trim releases the slack after
// a traffic spike.
type MergeBuffer struct {
	ev []XEvent
	// hw is the high-water occupancy since the last Trim.
	hw int
}

// Add appends one effect, keeping the buffer canonically ordered. Lanes
// drain their schedulers in time order, so appends arrive in nondecreasing
// (Time, Src, Seq) order already — two same-lane peers emitting at the
// float-identical instant is the only way an append can sort before the
// tail, making the fix-up loop dead weight on real traffic. It exists so
// the sorted-runs precondition of the k-way merge is a construction
// invariant rather than a statistical one.
func (b *MergeBuffer) Add(ev XEvent) {
	n := len(b.ev)
	b.ev = append(b.ev, ev)
	if n > 0 && b.ev[n].Before(&b.ev[n-1]) {
		for i := n; i > 0 && b.ev[i].Before(&b.ev[i-1]); i-- {
			b.ev[i], b.ev[i-1] = b.ev[i-1], b.ev[i]
		}
	}
}

// Len returns the number of buffered effects.
func (b *MergeBuffer) Len() int { return len(b.ev) }

// Reset empties the buffer, keeping capacity and recording the high-water
// mark Trim consults. A buffer's first Reset gives it a whole-pad.Block
// array: a lane appends to its outboxes on every spend, and the few-event
// array Add would otherwise start from shares its cache line with whatever
// the allocator put next to it.
func (b *MergeBuffer) Reset() {
	if len(b.ev) > b.hw {
		b.hw = len(b.ev)
	}
	if b.ev == nil {
		b.ev = pad.Make[XEvent](0)
	}
	b.ev = b.ev[:0]
}

// Trim releases slack capacity: when the buffer's backing array holds more
// than four times the high-water occupancy observed since the previous
// Trim, it is reallocated at that high-water mark. Steady-state traffic
// never triggers a reallocation — only a shrink after a spike (a flash
// crowd's barrier, a churn wave) that would otherwise pin the peak
// footprint for the rest of the run. Call at a quiet boundary, after the
// buffered window has been consumed.
func (b *MergeBuffer) Trim() {
	if len(b.ev) > b.hw {
		b.hw = len(b.ev)
	}
	if c := cap(b.ev); c > 64 && c > 4*b.hw {
		nw := b.hw
		if nw < 64 {
			nw = 64
		}
		ne := make([]XEvent, len(b.ev), nw)
		copy(ne, b.ev)
		b.ev = ne
	}
	b.hw = 0
}

// Events exposes the raw buffered slice (canonical order). The slice is
// owned by the buffer and valid until the next Add, Reset or Trim.
func (b *MergeBuffer) Events() []XEvent { return b.ev }

// exhausted is the head of a run that has no events left: +Inf time and
// the largest Src sort it after every real event (no emission happens at
// infinite time, and no peer has that index).
var exhausted = XEvent{Time: math.Inf(1), Src: math.MaxInt32}

// Merger is a loser-tree k-way merge over canonically ordered runs — the
// sharded kernel's one barrier merge, for lifecycle deltas and for the
// policy path's credit effects. Each lane's buffer is already in (Time,
// Src, Seq) order (MergeBuffer.Add maintains it), so merging K such runs
// costs one tournament replay of ceil(log2 K) inline comparisons per
// event: O(M log K) total, against the O(M log M) of re-sorting M events
// that are already K sorted runs. All internal state is recycled across
// Init calls; a Merger held for a run's lifetime allocates only until the
// largest K has been seen.
//
// The tree layout is the classic tournament: k padded leaves (one per
// run), internal nodes 1..k-1 each holding the index of the run that lost
// the match played there, and the overall winner kept aside. The matches
// compare the runs' head events where they lie — head[i] points into run
// i, or at exhausted — and Next hands out a pointer to the winner's head,
// so no event is copied. Advancing the winner's run and replaying its root
// path re-establishes the invariant in exactly log2(k) comparisons.
type Merger struct {
	// rest[i] is the unconsumed part of run i; head[i] points at its first
	// event, or at exhausted once it is empty.
	rest [][]XEvent
	head []*XEvent
	// loser[n] is the losing run index at internal node n (1..k-1);
	// node[i] is init-time scratch for the bottom-up tournament build.
	loser []int32
	node  []int32
	win   int32
	// last is the run of the event Next returned last.
	last int32
	k    int
	left int
}

// Init points the merger at a new window's runs. Empty runs are skipped;
// input slices are read, never modified, and must stay unchanged until
// the merge completes.
func (m *Merger) Init(runs [][]XEvent) {
	m.rest = m.rest[:0]
	m.left = 0
	for _, r := range runs {
		if len(r) > 0 {
			m.rest = append(m.rest, r)
			m.left += len(r)
		}
	}
	n := len(m.rest)
	k := 1
	for k < n {
		k <<= 1
	}
	m.k = k
	if cap(m.head) < k {
		m.head = make([]*XEvent, k)
		m.loser = make([]int32, k)
		m.node = make([]int32, 2*k)
	}
	m.head = m.head[:k]
	m.loser = m.loser[:k]
	m.node = m.node[:2*k]
	for i := 0; i < k; i++ {
		m.head[i] = &exhausted
		if i < n {
			m.head[i] = &m.rest[i][0]
		}
		m.node[k+i] = int32(i)
	}
	// Bottom-up tournament: each internal node records its loser and
	// forwards its winner.
	for nd := k - 1; nd >= 1; nd-- {
		a, b := m.node[2*nd], m.node[2*nd+1]
		if m.head[b].Before(m.head[a]) {
			a, b = b, a
		}
		m.node[nd] = a
		m.loser[nd] = b
	}
	m.win = m.node[1]
}

// Len returns the number of events not yet produced.
func (m *Merger) Len() int { return m.left }

// Next returns the next event in canonical order, nil once every run is
// exhausted. The pointer aliases the run.
func (m *Merger) Next() *XEvent {
	if m.left == 0 {
		return nil
	}
	m.left--
	w := m.win
	m.last = w
	x := m.head[w]
	// Advance the winning run and replay its path to the root.
	r := m.rest[w][1:]
	m.rest[w] = r
	if len(r) > 0 {
		m.head[w] = &r[0]
	} else {
		m.head[w] = &exhausted
	}
	for nd := (m.k + int(w)) >> 1; nd >= 1; nd >>= 1 {
		if l := m.loser[nd]; m.head[l].Before(m.head[w]) {
			m.loser[nd] = w
			w = l
		}
	}
	m.win = w
	return x
}

// Ahead returns the event d >= 1 places after the one Next last returned,
// in that event's run, or nil past the run's end: the read-ahead target of
// a caller that prefetches what each run's later events touch.
func (m *Merger) Ahead(d int) *XEvent {
	if r := m.rest[m.last]; d <= len(r) {
		return &r[d-1]
	}
	return nil
}

// Merge appends the canonical (Time, Src, Seq) merge of runs to dst and
// returns the extended slice. Pass dst[:0] of a reused scratch slice for
// allocation-free steady state.
func (m *Merger) Merge(dst []XEvent, runs [][]XEvent) []XEvent {
	m.Init(runs)
	if len(m.rest) == 1 {
		// The one run is already canonical.
		return append(dst, m.rest[0]...)
	}
	for x := m.Next(); x != nil; x = m.Next() {
		dst = append(dst, *x)
	}
	return dst
}
