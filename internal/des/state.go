package des

import (
	"fmt"
	"slices"

	"creditp2p/internal/snapshot"
)

// Pack encodes the handle as one word for serialization by simulations that
// persist handles (e.g. a peer's pending spend event).
func (h Handle) Pack() uint64 {
	return uint64(uint32(h.slot)) | uint64(h.gen)<<32
}

// UnpackHandle is the inverse of Handle.Pack.
func UnpackHandle(v uint64) Handle {
	return Handle{slot: int32(uint32(v)), gen: uint32(v >> 32)}
}

// encScratch holds the recycled per-field extraction buffers SaveState and
// SaveDelta transpose slab segments through: the slab is AoS in memory but
// per-field on disk (layout independent of struct packing), and recycling
// the transpose buffers keeps periodic checkpoints allocation-free in
// steady state.
type encScratch struct {
	times    []float64
	payloads []int64
	actors   []int32
	gens     []uint32
	kinds    []uint16
	states   []uint8
}

func (s *Scheduler) scratch(n int) *encScratch {
	if s.enc == nil {
		s.enc = &encScratch{}
	}
	e := s.enc
	if cap(e.times) < n {
		e.times = make([]float64, n)
		e.payloads = make([]int64, n)
		e.actors = make([]int32, n)
		e.gens = make([]uint32, n)
		e.kinds = make([]uint16, n)
		e.states = make([]uint8, n)
	}
	e.times = e.times[:n]
	e.payloads = e.payloads[:n]
	e.actors = e.actors[:n]
	e.gens = e.gens[:n]
	e.kinds = e.kinds[:n]
	e.states = e.states[:n]
	return e
}

// transpose extracts slab[lo:hi] into the scratch's per-field buffers.
func (s *Scheduler) transpose(lo, hi int) *encScratch {
	e := s.scratch(hi - lo)
	for i := lo; i < hi; i++ {
		nd := &s.slab[i]
		j := i - lo
		e.times[j] = nd.time
		e.payloads[j] = nd.payload
		e.actors[j] = nd.actor
		e.gens[j] = nd.gen
		e.kinds[j] = nd.kind
		e.states[j] = nd.state
	}
	return e
}

// SaveState serializes the scheduler: virtual time, counters, the full slab
// (per-field plus each slot's seq, so the layout on disk is independent of
// struct packing and of the queue's internal layout), and the free list. The
// pending multiset is NOT stored: it is exactly the non-free slots, ordered
// by their seq — restore derives it, moving the sort from every checkpoint
// to the rare restore. Cancelled-but-unpopped entries are included via
// their slot state; their lazy recycling order is part of the deterministic
// free-list evolution. Capturing clears the slab's dirty map: the snapshot
// is a fresh delta base.
func (s *Scheduler) SaveState(w *snapshot.Writer) {
	w.Section("sched")
	w.F64(s.now)
	w.U64(s.seq)
	w.U64(s.fired)
	w.U64(s.dropped)
	w.Int(s.live)

	e := s.transpose(0, len(s.slab))
	w.F64s(e.times)
	w.I64s(e.payloads)
	w.I32s(e.actors)
	w.U32s(e.gens)
	w.U16s(e.kinds)
	w.U8s(e.states)
	w.U64s(s.seqOf)
	w.I32s(s.free)
	s.dirty.Clear()
}

// SaveDelta serializes only the slab segments touched since the last
// capture (full or delta), plus the scalars and the free list — the
// incremental complement of SaveState. The dirty map is cleared: the delta
// extends the chain, and the next delta is relative to this one.
func (s *Scheduler) SaveDelta(w *snapshot.Writer) {
	w.Section("dsched")
	w.F64(s.now)
	w.U64(s.seq)
	w.U64(s.fired)
	w.U64(s.dropped)
	w.Int(s.live)
	w.Int(len(s.slab))
	w.I32s(s.free)
	w.Int(s.dirty.Count())
	s.dirty.Walk(func(seg int) {
		lo := seg << slabSegShift
		hi := lo + slabSegSize
		if hi > len(s.slab) {
			hi = len(s.slab)
		}
		w.U32(uint32(seg))
		e := s.transpose(lo, hi)
		w.F64s(e.times)
		w.I64s(e.payloads)
		w.I32s(e.actors)
		w.U32s(e.gens)
		w.U16s(e.kinds)
		w.U8s(e.states)
		w.U64s(s.seqOf[lo:hi])
	})
	s.dirty.Clear()
}

// ApplyDelta patches a delta serialized by SaveDelta into the receiver,
// which must already hold the chain's preceding state. The queue is NOT
// rebuilt — apply every delta in the chain, then call RebuildQueue
// once. Chain-order integrity (base id, link index, predecessor CRC) is the
// caller's concern via snapshot.ValidateChain.
func (s *Scheduler) ApplyDelta(r *snapshot.Reader) error {
	r.Section("dsched")
	now := r.F64()
	seq := r.U64()
	fired := r.U64()
	dropped := r.U64()
	live := r.Int()
	slabLen := r.Int()
	free := r.I32s(0)
	segs := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if slabLen < len(s.slab) {
		return fmt.Errorf("des: delta shrinks the slab from %d to %d slots", len(s.slab), slabLen)
	}
	for len(s.slab) < slabLen {
		s.slab = append(s.slab, node{})
		s.seqOf = append(s.seqOf, 0)
	}
	for _, sl := range free {
		if sl < 1 || int(sl) > slabLen {
			return fmt.Errorf("des: delta free list references slot %d outside the %d-slot slab", sl, slabLen)
		}
	}
	maxSeg := (slabLen + slabSegSize - 1) >> slabSegShift
	for k := 0; k < segs; k++ {
		seg := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if seg < 0 || seg >= maxSeg {
			return fmt.Errorf("des: delta segment %d outside the %d-segment slab", seg, maxSeg)
		}
		lo := seg << slabSegShift
		hi := lo + slabSegSize
		if hi > slabLen {
			hi = slabLen
		}
		n := hi - lo
		times := r.F64s(n)
		payloads := r.I64s(n)
		actors := r.I32s(n)
		gens := r.U32s(n)
		kinds := r.U16s(n)
		states := r.U8s(n)
		seqs := r.U64s(n)
		if err := r.Err(); err != nil {
			return err
		}
		if len(times) != n || len(payloads) != n || len(actors) != n || len(gens) != n ||
			len(kinds) != n || len(states) != n || len(seqs) != n {
			return fmt.Errorf("des: delta segment %d spans %d/%d/%d/%d/%d/%d/%d slots, want %d",
				seg, len(times), len(payloads), len(actors), len(gens), len(kinds), len(states), len(seqs), n)
		}
		for i := 0; i < n; i++ {
			s.slab[lo+i] = node{
				time:    times[i],
				payload: payloads[i],
				actor:   actors[i],
				gen:     gens[i],
				kind:    kinds[i],
				state:   states[i],
			}
		}
		copy(s.seqOf[lo:hi], seqs)
	}
	s.now = now
	s.seq = seq
	s.fired = fired
	s.dropped = dropped
	s.live = live
	s.free = free
	s.dirty.Grow(maxSeg)
	s.dirty.Clear()
	return nil
}

// pendingFromSlab derives the queued multiset — every non-free slot,
// ascending by seq — from the slab states. seq values are unique, so the
// order is total.
func (s *Scheduler) pendingFromSlab() ([]uint64, []int32) {
	type pair struct {
		seq  uint64
		slot int32
	}
	var ps []pair
	for i := range s.slab {
		if s.slab[i].state != slotFree {
			ps = append(ps, pair{seq: s.seqOf[i], slot: int32(i + 1)})
		}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	seqs := make([]uint64, len(ps))
	slots := make([]int32, len(ps))
	for i, p := range ps {
		seqs[i] = p.seq
		slots[i] = p.slot
	}
	return seqs, slots
}

// RebuildQueue reconstructs the calendar's pending set from the slab — the
// epilogue of a state or chain restore.
func (s *Scheduler) RebuildQueue() {
	seqs, slots := s.pendingFromSlab()
	s.cal = newCalendarQueue()
	// Pre-grow the per-slot entry storage: push assumes slots are handed out
	// in slab order, which does not hold when rebuilding an arbitrary
	// pending set.
	s.cal.slots = make([]calSlot, len(s.slab))
	for i, sl := range slots {
		s.cal.push(s.slab[sl-1].time, seqs[i], sl)
	}
	s.warmPos = 0
}

// LoadState restores a scheduler serialized by SaveState into the receiver:
// the pending set is derived from the slot states and rebuilt into the
// calendar.
func (s *Scheduler) LoadState(r *snapshot.Reader) error {
	r.Section("sched")
	now := r.F64()
	seq := r.U64()
	fired := r.U64()
	dropped := r.U64()
	live := r.Int()

	times := r.F64s(0)
	payloads := r.I64s(0)
	actors := r.I32s(0)
	gens := r.U32s(0)
	kinds := r.U16s(0)
	states := r.U8s(0)
	seqs := r.U64s(0)
	free := r.I32s(0)
	if err := r.Err(); err != nil {
		return err
	}
	n := len(times)
	if len(payloads) != n || len(actors) != n || len(gens) != n || len(kinds) != n ||
		len(states) != n || len(seqs) != n {
		return fmt.Errorf("des: slab field lengths disagree (%d/%d/%d/%d/%d/%d/%d)",
			n, len(payloads), len(actors), len(gens), len(kinds), len(states), len(seqs))
	}
	for _, sl := range free {
		if sl < 1 || int(sl) > n {
			return fmt.Errorf("des: free list references slot %d outside the %d-slot slab", sl, n)
		}
	}

	s.now = now
	s.seq = seq
	s.fired = fired
	s.dropped = dropped
	s.live = live
	s.slab = make([]node, n)
	for i := range s.slab {
		s.slab[i] = node{
			time:    times[i],
			payload: payloads[i],
			actor:   actors[i],
			gen:     gens[i],
			kind:    kinds[i],
			state:   states[i],
		}
	}
	s.seqOf = seqs
	s.free = free
	s.dirty.Grow((n + slabSegSize - 1) >> slabSegShift)
	s.dirty.Clear()
	s.RebuildQueue()
	return nil
}

// CheckIntegrity audits the slab bookkeeping: the live counter must match
// the number of live slots, the free list must hold exactly the free slots
// with no duplicates, and every queued entry must reference a non-free
// slot whose recorded seq matches the queue's. It is the scheduler's
// contribution to the kernel's periodic invariant audit.
func (s *Scheduler) CheckIntegrity() error {
	var liveCount, freeCount int
	for i := range s.slab {
		switch s.slab[i].state {
		case slotLive:
			liveCount++
		case slotFree:
			freeCount++
		}
	}
	if liveCount != s.live {
		return fmt.Errorf("des: live counter %d but %d slots are live", s.live, liveCount)
	}
	if len(s.free) != freeCount {
		return fmt.Errorf("des: free list holds %d slots but %d slab slots are free", len(s.free), freeCount)
	}
	seen := make(map[int32]bool, len(s.free))
	for _, sl := range s.free {
		if sl < 1 || int(sl) > len(s.slab) {
			return fmt.Errorf("des: free list references slot %d outside the %d-slot slab", sl, len(s.slab))
		}
		if seen[sl] {
			return fmt.Errorf("des: slot %d appears twice in the free list", sl)
		}
		seen[sl] = true
		if st := s.slab[sl-1].state; st != slotFree {
			return fmt.Errorf("des: free-listed slot %d has state %d, want free", sl, st)
		}
	}
	return s.checkQueueSeqs()
}

// checkQueueSeqs verifies every queued entry's (time, seq) key against the
// slab's per-slot record — the invariant the derived-pending restore path
// relies on, and the one a stale calendar re-chain breaks (an entry keyed
// by its slot's previous occupant is delivered at the wrong time).
func (s *Scheduler) checkQueueSeqs() error {
	check := func(t float64, seq uint64, slot int32) error {
		if slot < 1 || int(slot) > len(s.slab) {
			return fmt.Errorf("des: queued entry references slot %d outside the %d-slot slab", slot, len(s.slab))
		}
		if got := s.seqOf[slot-1]; got != seq {
			return fmt.Errorf("des: queued entry for slot %d carries seq %d but the slab records %d", slot, seq, got)
		}
		if got := s.slab[slot-1].time; got != t {
			return fmt.Errorf("des: queued entry for slot %d carries time %v but the slab records %v", slot, t, got)
		}
		return nil
	}
	q := &s.cal
	for _, head := range q.heads {
		for sl := head; sl != 0; sl = q.slots[sl-1].next {
			if err := check(q.slots[sl-1].time, q.slots[sl-1].seq, sl); err != nil {
				return err
			}
		}
	}
	for _, e := range q.drain[q.pos:] {
		if err := check(e.time, e.seq, e.slot); err != nil {
			return err
		}
	}
	return nil
}
