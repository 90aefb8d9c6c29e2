package des

import (
	"math"
	"math/bits"
	"slices"

	"creditp2p/internal/pad"
	"creditp2p/internal/prefetch"
)

// calendarQueue is a bucketed timing wheel (a calendar queue in the sense
// of Brown, CACM 1988) over the scheduler's pending slab slots. For the
// roughly stationary event-time distributions both simulators produce —
// exponential inter-event gaps at an aggregate rate that changes slowly —
// enqueue and dequeue are O(1) amortized.
//
// The wheel keeps no per-slot storage of its own: each bucket is a
// singly-linked chain threaded through the slab nodes' next links, and an
// entry's key is its node's (time, seq). A push is two writes and never
// allocates. An entry's day is derived from its time by dayOf whenever it
// is needed; every day number flows through that one function under the
// width of the current layout, so bucket membership and window
// qualification cannot drift across laps.
//
// Dequeue drains whole calendar days at a time: the first non-empty day's
// entries are unlinked into a reusable buffer, sorted once by (time, seq),
// and served by cursor, amortizing the bucket walk and min-scan across the
// day's whole batch. A rare push landing inside the day being drained is
// spliced into the buffer at its sorted position, so the delivered order is
// exactly (time, seq) order (tests replay scripts against a sorting
// oracle).
//
// The entry set is exactly the scheduler's non-free slots, live and
// cancelled alike: the scheduler frees a served slot before it removes the
// head. So when the queue's density leaves the sweet spot, rechain lays the
// wheel out afresh from the slab alone — capacity doubles (or halves) and
// the width is re-estimated from the pending span — and a state restore
// rebuilds the wheel the same way. A full empty lap (possible when a few
// events sit far in the future) falls back to a direct scan for the
// earliest day and jumps the calendar to it.
type calendarQueue struct {
	// heads holds each bucket's chain head slot (0 marks an empty bucket;
	// slots are 1-based), and each chained node's next link names the
	// following one.
	heads []int32
	mask  int64
	width float64
	// invWidth caches 1/width for the day computation: multiplication is
	// monotone in t just like division, and every day number flows through
	// the same dayOf.
	invWidth float64
	count    int
	// curDay is the absolute day number (floor(time/width), unmasked) the
	// dequeue scan resumes from. All pending entries have day >= curDay,
	// except those already pulled into the drain buffer.
	curDay int64

	// drain is the batched front: every pending entry with day <= drainDay,
	// ascending by (time, seq); pos is the serve cursor. While the drain is
	// active (pos < len(drain)), curDay == drainDay and every chained entry
	// has day > drainDay. The drain grows to the largest day batch.
	drain    []calEntry
	pos      int
	drainDay int64
	// scratch is sortDrain's scatter target, grown like drain.
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

// push inserts the non-free slab slot slot, keyed by its node's (time, seq).
func (q *calendarQueue) push(slab []node, slot int32) {
	nd := &slab[slot-1]
	day := q.dayOf(nd.time)
	if q.draining() && day <= q.drainDay {
		// The entry belongs to the day currently being served: splice it
		// into the batch at its sorted position. Rare — a day is a sliver
		// of the pending span — so the memmove amortizes to nothing.
		lo, hi := q.pos, len(q.drain)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if q.drain[mid].beforeEntry(nd.time, nd.seq) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.drain = append(q.drain, calEntry{})
		copy(q.drain[lo+1:], q.drain[lo:])
		q.drain[lo] = calEntry{time: nd.time, seq: nd.seq, slot: slot}
		q.count++
		return
	}
	b := day & q.mask
	nd.next = q.heads[b]
	q.heads[b] = slot
	q.count++
	if day < q.curDay {
		// Scheduled behind the calendar's scan position (the scan had
		// advanced toward a far-future minimum): rewind to it.
		q.curDay = day
	}
	if q.count > calGrowOccupancy*len(q.heads) {
		q.rechain(slab)
	}
}

// peek puts the minimum (time, seq) entry at the drain cursor,
// q.drain[q.pos], without removing it — batching its whole calendar day
// into the drain buffer when the buffer is spent. It reports false when the
// queue is empty.
func (q *calendarQueue) peek(slab []node) bool {
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
		if q.drainDayInto(slab, day) {
			return true
		}
	}
	// Sparse queue: nothing within a lap. Directly scan every chained entry
	// for the earliest day and jump the calendar to it.
	minDay := int64(calMaxDay)
	for _, s := range q.heads {
		for s != 0 {
			nd := &slab[s-1]
			minDay = min(minDay, q.dayOf(nd.time))
			s = nd.next
		}
	}
	return q.drainDayInto(slab, minDay) // always true while count > 0
}

// drainDayInto unlinks every entry of the given absolute day into the drain
// buffer, sorted by (time, seq), and reports whether any were found.
func (q *calendarQueue) drainDayInto(slab []node, day int64) bool {
	q.drain = q.drain[:0]
	q.pos = 0
	prev := int32(0) // 0 means "the bucket head"
	b := day & q.mask
	for s := q.heads[b]; s != 0; {
		nd := &slab[s-1]
		nxt := nd.next
		if q.dayOf(nd.time) == day {
			q.drain = append(q.drain, calEntry{time: nd.time, seq: nd.seq, slot: s})
			if prev == 0 {
				q.heads[b] = nxt
			} else {
				slab[prev-1].next = nxt
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
		prefetch.Of(&slab[s-1])
	}
	return true
}

// prewalkStep advances the next-day chain pre-walk by one link: it reads
// the link prefetched on the previous pop and prefetches the one it names.
func (q *calendarQueue) prewalkStep(slab []node) {
	if s := q.nwSlot; s != 0 {
		nxt := slab[s-1].next
		if nxt != 0 {
			prefetch.Of(&slab[nxt-1])
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
// The scheduler frees the served slot first: a shrink rechains from the
// slab, and a served slot still marked pending would be chained again.
func (q *calendarQueue) removeHead(slab []node) {
	q.pos++
	q.count--
	if 4*q.count < len(q.heads) && len(q.heads) > calMinBuckets {
		q.rechain(slab)
	}
}

// rechain lays out the wheel afresh over the pending entries, which are
// exactly the slab's non-free slots: one pass over the slab counts them
// and finds their time span, which sizes the buckets at the target
// occupancy and re-estimates the width (one lap of the wheel covers
// roughly the full pending window); a second pass chains every entry by
// its day. The drain batch is emptied, since the new width redraws day
// boundaries and its unserved remainder is chained like the rest.
// Amortized over the pushes and pops that trigger it, a retune is O(1).
func (q *calendarQueue) rechain(slab []node) {
	q.drain = q.drain[:0]
	q.pos = 0

	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range slab {
		nd := &slab[i]
		if nd.state == slotFree {
			continue
		}
		n++
		if nd.time < lo {
			lo = nd.time
		}
		if nd.time > hi && !math.IsInf(nd.time, 1) {
			hi = nd.time
		}
	}
	q.count = n
	buckets := calMinBuckets
	for calTargetOccupancy*buckets < n {
		buckets *= 2
	}
	if n > 1 && hi > lo {
		// Day width such that one lap (buckets * width) spans the pending
		// window at the target occupancy.
		q.width = (hi - lo) * float64(calTargetOccupancy) / float64(n)
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
	for i := range slab {
		nd := &slab[i]
		if nd.state == slotFree {
			continue
		}
		day := q.dayOf(nd.time)
		minDay = min(minDay, day)
		b := day & q.mask
		nd.next = q.heads[b]
		q.heads[b] = int32(i + 1)
	}
	if n == 0 {
		minDay = 0
	}
	q.curDay = minDay
}
