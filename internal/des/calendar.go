package des

import (
	"math"
	"math/bits"
	"slices"

	"creditp2p/internal/pad"
	"creditp2p/internal/prefetch"
)

// calendarQueue is a bucketed timing wheel (a calendar queue in the sense
// of Brown, CACM 1988) over the scheduler's (time, seq, slot) entries. For
// the roughly stationary event-time distributions both simulators produce —
// exponential inter-event gaps at an aggregate rate that changes slowly —
// enqueue and dequeue are O(1) amortized.
//
// Storage is allocation-free in steady state: entries live in per-slot
// parallel arrays that grow in lockstep with the scheduler's slab, and each
// bucket is a singly-linked chain threaded through the next array, so a
// push is three array writes and never allocates. (The previous
// slice-of-slices layout re-allocated every bucket after each retune —
// ~0.2 allocations per event at 100k peers.)
//
// Dequeue drains whole calendar days at a time: the first non-empty day's
// entries are unlinked into a reusable buffer, sorted once by (time, seq),
// and served by cursor, amortizing the bucket walk and min-scan across the
// day's whole batch. A rare push landing inside the day being drained is
// spliced into the buffer at its sorted position, so the delivered order is
// exactly (time, seq) order (tests replay scripts against a sorting
// oracle). A spliced entry's key lives only in the buffer until a retune
// re-chains it, which is why retune writes keys as well as links. Bucket
// membership is computed once per entry as an integer day number, never
// re-derived from float arithmetic, so window qualification cannot drift
// across laps.
//
// When the queue's density leaves the sweet spot the wheel is rebuilt:
// capacity doubles (or halves) and the width is re-estimated from the
// pending span. A full empty lap (possible when a few events sit far in the
// future) falls back to a direct scan for the earliest day and jumps the
// calendar to it.
type calendarQueue struct {
	// Per-slot entry storage, parallel to the scheduler slab (index is
	// slot-1). One struct per slot rather than parallel arrays: a push or
	// drain touches a single cache line per entry instead of four, which
	// is what the million-peer working set notices. next threads each
	// bucket's chain; 0 terminates.
	slots []calSlot

	// heads holds each bucket's chain head slot (0 marks an empty bucket;
	// slots are 1-based).
	heads []int32
	mask  int64
	width float64
	// invWidth caches 1/width for the day computation: multiplication is
	// monotone in t just like division, and every day number (push and
	// rebuild alike) flows through the same dayOf, so bucket membership
	// and window qualification stay mutually consistent.
	invWidth float64
	count    int
	// curDay is the absolute day number (floor(time/width), unmasked) the
	// dequeue scan resumes from. All pending entries have day >= curDay,
	// except those already pulled into the drain buffer.
	curDay int64

	// drain is the batched front: every pending entry with day <= drainDay,
	// ascending by (time, seq); pos is the serve cursor. While the drain is
	// active (pos < len(drain)), curDay == drainDay and every chained entry
	// has day > drainDay.
	drain    []calEntry
	pos      int
	drainDay int64
	// scratch is the reusable retune gather buffer, and sortDrain's
	// scatter target.
	scratch []calEntry
	// bins is sortDrain's recycled per-bin count and offset array.
	bins []int32

	// nwSlot cursors a one-hop-per-pop pre-walk of the next day's bucket
	// chain: drainDayInto's pointer chase is a serial cache-miss chain,
	// so advancing one link per pop while the current batch serves
	// overlaps those misses with event work. Each link is prefetched one
	// pop before it is read. The cursor is only a hint — a stale one
	// (splice, retune, recycled slot) just fetches a harmless line.
	nwSlot int32
}

// calEntry is one pending event's ordering key and slab slot: the drain
// batch's element, and what pop serves from its head.
type calEntry struct {
	time float64
	seq  uint64 // FIFO tie-break for simultaneous events
	slot int32
	bin  uint32 // sortDrain's sub-day bin; fills the struct's padding
}

// calSlot is one chained pending event, indexed by scheduler slot-1.
type calSlot struct {
	time float64
	seq  uint64
	day  int64
	next int32
}

func (a calEntry) beforeEntry(bTime float64, bSeq uint64) bool {
	if a.time != bTime {
		return a.time < bTime
	}
	return a.seq < bSeq
}

const (
	calMinBuckets = 16
	// The wheel is retuned toward calTargetOccupancy entries per bucket; a
	// push past calGrowOccupancy or a removal below 1/4 triggers it. With
	// batched day draining, a handful of entries per day amortizes the
	// bucket walk and the one sort across the whole batch; occupancies much
	// past that lengthen the splice search for pushes landing in the day
	// being drained.
	calTargetOccupancy = 4
	calGrowOccupancy   = 8
	// calMaxDay clamps day numbers for events absurdly far in the future
	// (e.g. time/width overflowing int64). Clamping preserves the
	// monotonicity of time -> day, which is all correctness needs; such
	// events are simply found by the earliest-day fallback scan.
	calMaxDay = math.MaxInt64 / 4
)

// newCalendarQueue returns an empty wheel whose buffers each start at one
// whole pad.Block or more, so a lane's calendar never shares a cache line
// with another lane's data (append growth keeps whole blocks; see pad).
func newCalendarQueue() calendarQueue {
	return calendarQueue{
		slots:    pad.Make[calSlot](0),
		heads:    make([]int32, calMinBuckets, pad.Cap[int32](calMinBuckets)),
		drain:    pad.Make[calEntry](0),
		scratch:  pad.Make[calEntry](0),
		bins:     pad.Make[int32](0),
		mask:     calMinBuckets - 1,
		width:    1,
		invWidth: 1,
	}
}

// dayOf maps an event time to its absolute day under the current width.
func (q *calendarQueue) dayOf(t float64) int64 {
	d := t * q.invWidth
	if d >= calMaxDay {
		return calMaxDay
	}
	return int64(d)
}

// draining reports whether the day batch still holds unserved entries.
func (q *calendarQueue) draining() bool { return q.pos < len(q.drain) }

// push inserts an entry.
func (q *calendarQueue) push(t float64, seq uint64, slot int32) {
	i := int(slot) - 1
	if i >= len(q.slots) {
		// Slots are handed out by the scheduler slab in order, so this
		// appends in lockstep (amortized, no per-push allocation).
		q.slots = append(q.slots, calSlot{})
	}
	day := q.dayOf(t)
	if q.draining() && day <= q.drainDay {
		// The entry belongs to the day currently being served: splice it
		// into the batch at its sorted position. Rare — a day is a sliver
		// of the pending span — so the memmove amortizes to nothing.
		lo, hi := q.pos, len(q.drain)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.drain[mid].beforeEntry(t, seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.drain = append(q.drain, calEntry{})
		copy(q.drain[lo+1:], q.drain[lo:])
		q.drain[lo] = calEntry{time: t, seq: seq, slot: slot}
		q.count++
		return
	}
	b := day & q.mask
	q.slots[i] = calSlot{time: t, seq: seq, day: day, next: q.heads[b]}
	q.heads[b] = slot
	q.count++
	if day < q.curDay {
		// Scheduled behind the calendar's scan position (the scan had
		// advanced toward a far-future minimum): rewind to it.
		q.curDay = day
	}
	if q.count > calGrowOccupancy*len(q.heads) {
		q.retune()
	}
}

// peek puts the minimum (time, seq) entry at the drain cursor,
// q.drain[q.pos], without removing it — batching its whole calendar day
// into the drain buffer when the buffer is spent. It reports false when the
// queue is empty.
func (q *calendarQueue) peek() bool {
	if q.draining() {
		return true
	}
	if q.count == 0 {
		return false
	}
	// Scan one lap of the wheel from the current day forward and drain the
	// first day that owns entries. Chains mix laps, so each is filtered by
	// the exact day number.
	nb := int64(len(q.heads))
	for i := int64(0); i < nb; i++ {
		day := q.curDay + i
		if q.drainDayInto(day) {
			return true
		}
	}
	// Sparse queue: nothing within a lap. Directly scan every chained entry
	// for the earliest day and jump the calendar to it.
	minDay := int64(calMaxDay)
	for _, s := range q.heads {
		for s != 0 {
			sl := &q.slots[s-1]
			if sl.day < minDay {
				minDay = sl.day
			}
			s = sl.next
		}
	}
	return q.drainDayInto(minDay) // always true while count > 0
}

// drainDayInto unlinks every entry of the given absolute day into the drain
// buffer, sorted by (time, seq), and reports whether any were found.
func (q *calendarQueue) drainDayInto(day int64) bool {
	q.drain = q.drain[:0]
	q.pos = 0
	prev := int32(0) // 0 means "the bucket head"
	b := day & q.mask
	for s := q.heads[b]; s != 0; {
		sl := &q.slots[s-1]
		nxt := sl.next
		if sl.day == day {
			q.drain = append(q.drain, calEntry{time: sl.time, seq: sl.seq, slot: s})
			if prev == 0 {
				q.heads[b] = nxt
			} else {
				q.slots[prev-1].next = nxt
			}
		} else {
			prev = s
		}
		s = nxt
	}
	if len(q.drain) == 0 {
		return false
	}
	q.sortDrain(day)
	q.curDay = day
	q.drainDay = day
	q.nwSlot = q.heads[(day+1)&q.mask]
	if s := q.nwSlot; s != 0 {
		prefetch.Of(&q.slots[s-1])
	}
	return true
}

// prewalkStep advances the next-day chain pre-walk by one link: it reads
// the link prefetched on the previous pop and prefetches the one it names.
func (q *calendarQueue) prewalkStep() {
	if s := q.nwSlot; s != 0 {
		nxt := q.slots[s-1].next
		if nxt != 0 {
			prefetch.Of(&q.slots[nxt-1])
		}
		q.nwSlot = nxt
	}
}

// sortDrain orders the batch of the given day ascending by (time, seq). The
// wheel aims at calTargetOccupancy entries per day, but it estimates the
// width from the pending span only at retunes, and retunes stop once the
// wheel is sized. Exponential residuals and long churn spells make that
// span much wider than the event spacing at the queue head, so day batches
// on the sharded market workloads run to tens or hundreds of entries
// (DESIGN.md, "Calendar-queue scheduler").
//
// A batch above 16 entries is ordered by one distribution pass over nb
// sub-day bins, nb the next power of two at or above its length: entry e
// goes to bin floor((e.time*invWidth - day) * nb). The product is the one
// dayOf takes, so its fraction past day is exact and lies in [0, 1), and
// scaling by a power of two is exact too: the bin is monotone in time.
// Counting, a prefix sum and a scatter into scratch put the batch in bin
// order, and one insertion pass from scratch back into the batch orders
// each bin, which holds about one entry. A clamped day, or a bin of more
// than 32 entries (exact time ties), takes the generic sort, which keeps
// the worst case O(n log n). Small batches take the insertion sort.
// (time, seq) keys are unique, so every correct sort yields the same
// byte-identical delivery order.
func (q *calendarQueue) sortDrain(day int64) {
	d := q.drain
	n := len(d)
	if n <= 16 {
		insertionDrain(d, d)
		return
	}
	if day >= calMaxDay {
		slices.SortFunc(d, cmpEntry)
		return
	}
	nb := 1 << bits.Len(uint(n-1))
	if cap(q.bins) < nb {
		q.bins = pad.Make[int32](nb)
	}
	cnt := q.bins[:nb]
	clear(cnt)
	inv, base, scale := q.invWidth, float64(day), float64(nb)
	for i := range d {
		// The conversion rounds the product on its own, as dayOf's does,
		// so no fused multiply-add can carry its exact value below day.
		b := uint(int((float64(d[i].time*inv) - base) * scale))
		if b >= uint(nb) {
			// Only a negative time, which a restored snapshot may
			// carry, falls outside [0, nb): dayOf truncates toward 0.
			slices.SortFunc(d, cmpEntry)
			return
		}
		d[i].bin = uint32(b)
		cnt[b]++
	}
	sum := int32(0)
	for b, c := range cnt {
		if c > 32 {
			slices.SortFunc(d, cmpEntry)
			return
		}
		cnt[b] = sum
		sum += c
	}
	if cap(q.scratch) < n {
		q.scratch = pad.Grow(q.scratch[:0], n)
	}
	src := q.scratch[:n]
	for _, e := range d {
		src[cnt[e.bin]] = e
		cnt[e.bin]++
	}
	insertionDrain(d, src)
}

// insertionDrain insertion-sorts src into d, which has src's length: each
// entry walks back past the larger entries already placed. src may be d
// itself, since entry i is read before any write reaches index i.
func insertionDrain(d, src []calEntry) {
	for i, e := range src {
		j := i
		for j > 0 && e.beforeEntry(d[j-1].time, d[j-1].seq) {
			d[j] = d[j-1]
			j--
		}
		d[j] = e
	}
}

// cmpEntry orders entries by (time, seq) for the generic sort.
func cmpEntry(a, b calEntry) int {
	if a.beforeEntry(b.time, b.seq) {
		return -1
	}
	if b.beforeEntry(a.time, a.seq) {
		return 1
	}
	return 0
}

// removeHead deletes the entry located by the immediately preceding peek.
func (q *calendarQueue) removeHead() {
	if !q.draining() {
		if !q.peek() {
			return
		}
	}
	q.pos++
	q.count--
	if 4*q.count < len(q.heads) && len(q.heads) > calMinBuckets {
		q.retune()
	}
}

// retune rebuilds the wheel at the target occupancy with a width
// re-estimated from the pending events' span (one lap of the wheel covers
// roughly the full pending window), redistributing every entry — the drain
// remainder included, since the new width redraws day boundaries.
// Amortized over the pushes/pops that triggered it, this is O(1).
func (q *calendarQueue) retune() {
	all := q.scratch[:0]
	for _, s := range q.heads {
		for s != 0 {
			sl := &q.slots[s-1]
			all = append(all, calEntry{time: sl.time, seq: sl.seq, slot: s})
			s = sl.next
		}
	}
	q.rechain(append(all, q.drain[q.pos:]...))
}

// rechain lays out the wheel afresh over exactly the entries in all: it
// sizes the buckets for them, re-estimates the width from their span, and
// chains every entry by its day. The drain batch is emptied, so all must
// already hold its unserved remainder. all is gathered in the scratch
// buffer, and its backing array stays the scratch afterwards.
func (q *calendarQueue) rechain(all []calEntry) {
	q.drain = q.drain[:0]
	q.pos = 0

	buckets := calMinBuckets
	for calTargetOccupancy*buckets < len(all) {
		buckets *= 2
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range all {
		if e.time < lo {
			lo = e.time
		}
		if e.time > hi && !math.IsInf(e.time, 1) {
			hi = e.time
		}
	}
	if len(all) > 1 && hi > lo {
		// Day width such that one lap (buckets * width) spans the pending
		// window at the target occupancy.
		q.width = (hi - lo) * float64(calTargetOccupancy) / float64(len(all))
	}
	if !(q.width > 0) || math.IsInf(q.width, 1) {
		q.width = 1
	}
	q.invWidth = 1 / q.width
	if !(q.invWidth > 0) || math.IsInf(q.invWidth, 1) {
		q.width, q.invWidth = 1, 1
	}
	// Reslice within the old capacity when it suffices: a fill/drain cycle
	// grows and shrinks the wheel every lap, and allocating here would be
	// the steady state's only allocation.
	if buckets <= cap(q.heads) {
		q.heads = q.heads[:buckets]
		clear(q.heads)
	} else {
		q.heads = make([]int32, buckets)
	}
	q.mask = int64(buckets - 1)
	minDay := int64(calMaxDay)
	for _, e := range all {
		sl := &q.slots[e.slot-1]
		day := q.dayOf(e.time)
		// The key is rewritten, not just the link: an entry spliced into
		// the drain batch never had it stored in its slot, which may still
		// hold a previous occupant's (time, seq).
		sl.time, sl.seq, sl.day = e.time, e.seq, day
		if day < minDay {
			minDay = day
		}
		b := day & q.mask
		sl.next = q.heads[b]
		q.heads[b] = e.slot
	}
	if len(all) == 0 {
		minDay = 0
	}
	q.curDay = minDay
	q.scratch = all[:0]
}
