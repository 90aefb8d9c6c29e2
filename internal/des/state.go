package des

import (
	"fmt"
	"math"

	"creditp2p/internal/pad"
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

// encScratch holds the recycled per-field buffers slab segments are
// transposed through on capture and decoded into on restore: the slab is
// AoS in memory but per-field on disk (layout independent of struct
// packing), and recycling the buffers keeps periodic checkpoints
// allocation-free in steady state.
type encScratch struct {
	times    []float64
	payloads []int64
	actors   []int32
	gens     []uint32
	kinds    []uint16
	states   []uint8
	seqs     []uint64
}

// slotBytes is the payload one carried slot takes: time, payload, actor,
// gen, kind, state and seq.
const slotBytes = 8 + 8 + 4 + 4 + 2 + 1 + 8

// fieldBuffers returns the recycled per-field buffers resliced to n <=
// slabSegSize slots, allocating them on first use.
func (s *Scheduler) fieldBuffers(n int) *encScratch {
	e := &s.enc
	if e.times == nil {
		*e = encScratch{
			times:    make([]float64, slabSegSize),
			payloads: make([]int64, slabSegSize),
			actors:   make([]int32, slabSegSize),
			gens:     make([]uint32, slabSegSize),
			kinds:    make([]uint16, slabSegSize),
			states:   make([]uint8, slabSegSize),
			seqs:     make([]uint64, slabSegSize),
		}
	}
	e.times = e.times[:n]
	e.payloads = e.payloads[:n]
	e.actors = e.actors[:n]
	e.gens = e.gens[:n]
	e.kinds = e.kinds[:n]
	e.states = e.states[:n]
	e.seqs = e.seqs[:n]
	return e
}

// transpose extracts slab[lo:hi] into the recycled per-field buffers.
func (s *Scheduler) transpose(lo, hi int) *encScratch {
	e := s.fieldBuffers(hi - lo)
	for i := lo; i < hi; i++ {
		nd := &s.slab[i]
		j := i - lo
		e.times[j] = nd.time
		e.payloads[j] = nd.payload
		e.actors[j] = nd.actor
		e.gens[j] = nd.gen
		e.kinds[j] = nd.kind
		e.states[j] = nd.state
		e.seqs[j] = nd.seq
	}
	return e
}

// SaveState serializes the whole scheduler: the virtual time, counters and
// free list plus every slab segment, each per-field with its slots' seqs
// (the on-disk layout is independent of struct packing and of the queue's
// internal layout). The pending multiset is NOT stored: it is exactly the
// non-free slots ordered by seq, and restore derives it.
// Cancelled-but-unpopped entries ride along via their slot state; their
// lazy recycling order is part of the deterministic free-list evolution.
func (s *Scheduler) SaveState(w *snapshot.Writer) {
	w.Section("dsched")
	w.F64(s.now)
	w.U64(s.seq)
	w.U64(s.fired)
	w.U64(s.dropped)
	w.Int(s.live)
	w.Int(len(s.slab))
	w.I32s(s.free)
	segs := (len(s.slab) + slabSegSize - 1) >> slabSegShift
	w.Int(segs)
	for seg := 0; seg < segs; seg++ {
		lo := seg << slabSegShift
		hi := min(lo+slabSegSize, len(s.slab))
		w.U32(uint32(seg))
		e := s.transpose(lo, hi)
		w.F64s(e.times)
		w.I64s(e.payloads)
		w.I32s(e.actors)
		w.U32s(e.gens)
		w.U16s(e.kinds)
		w.U8s(e.states)
		w.U64s(e.seqs)
	}
}

// SavedLenBound bounds the bytes SaveState writes while the slab stays
// within its current capacity (Reserve sets it): the fixed fields, every
// slot at slotBytes plus a free-list entry, and each segment's id and
// length prefixes. A checkpoint writer sized from it never regrows.
func (s *Scheduler) SavedLenBound() int {
	slots := cap(s.slab)
	segs := (slots + slabSegSize - 1) >> slabSegShift
	return 1 + len("dsched") + 8*8 + slots*(slotBytes+4) + segs*(4+7*8)
}

// LoadState restores a scheduler serialized by SaveState into the
// receiver, replacing its slab, and rebuilds the calendar from the slot
// states. Segments must ascend and together cover the whole slab, and the
// slab never grows past the bytes actually read. Queued slots must hold a
// valid state and a time no earlier than the capture's.
func (s *Scheduler) LoadState(r *snapshot.Reader) error {
	s.slab = s.slab[:0]
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
	if math.IsNaN(now) {
		return fmt.Errorf("des: snapshot virtual time is NaN")
	}
	if slabLen < 0 || slabLen > math.MaxInt32 {
		return fmt.Errorf("des: snapshot sizes the slab at %d slots", slabLen)
	}
	for _, sl := range free {
		if sl < 1 || int(sl) > slabLen {
			return fmt.Errorf("des: snapshot free list references slot %d outside the %d-slot slab", sl, slabLen)
		}
	}
	maxSeg := (slabLen + slabSegSize - 1) >> slabSegShift
	if segs < 0 || segs > maxSeg {
		return fmt.Errorf("des: snapshot carries %d segments of a %d-segment slab", segs, maxSeg)
	}
	// Every slot is carried at slotBytes of payload or more, so reserving
	// the slab up front stays within a constant factor of the bytes
	// actually present.
	if slabLen > r.Remaining()/slotBytes {
		return fmt.Errorf("des: snapshot sizes the slab at %d slots but holds %d payload bytes", slabLen, r.Remaining())
	}
	s.slab = pad.Grow(s.slab, slabLen)
	prev := -1
	for k := 0; k < segs; k++ {
		seg := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if seg <= prev || seg >= maxSeg {
			return fmt.Errorf("des: snapshot segment %d out of order or outside the %d-segment slab", seg, maxSeg)
		}
		prev = seg
		lo := seg << slabSegShift
		hi := min(lo+slabSegSize, slabLen)
		if lo > len(s.slab) {
			return fmt.Errorf("des: snapshot sizes the slab at %d slots but leaves slots [%d,%d) uncovered", slabLen, len(s.slab), lo)
		}
		// The per-field spans decode into the recycled transpose buffers.
		n := hi - lo
		e := s.fieldBuffers(n)
		snapshot.Fill(r, "slot times", e.times)
		snapshot.Fill(r, "slot payloads", e.payloads)
		snapshot.Fill(r, "slot actors", e.actors)
		snapshot.Fill(r, "slot generations", e.gens)
		snapshot.Fill(r, "slot kinds", e.kinds)
		snapshot.Fill(r, "slot states", e.states)
		snapshot.Fill(r, "slot seqs", e.seqs)
		if err := r.Err(); err != nil {
			return fmt.Errorf("des: snapshot segment %d: %w", seg, err)
		}
		for i, st := range e.states {
			if st > slotDead || st != slotFree && !(e.times[i] >= now) {
				return fmt.Errorf("des: snapshot slot %d has state %d at time %v (now %v)", lo+i+1, st, e.times[i], now)
			}
		}
		s.slab = s.slab[:hi]
		for i := 0; i < n; i++ {
			s.slab[lo+i] = node{
				time:    e.times[i],
				payload: e.payloads[i],
				seq:     e.seqs[i],
				actor:   e.actors[i],
				gen:     e.gens[i],
				kind:    e.kinds[i],
				state:   e.states[i],
			}
		}
	}
	if len(s.slab) < slabLen {
		return fmt.Errorf("des: snapshot sizes the slab at %d slots but carries only the first %d", slabLen, len(s.slab))
	}
	s.now = now
	s.seq = seq
	s.fired = fired
	s.dropped = dropped
	s.live = live
	s.free = append(pad.Grow(s.free[:0], len(free)), free...)
	s.rebuildQueue()
	return nil
}

// rebuildQueue reconstructs the calendar's pending set — every non-free
// slot, live and cancelled alike — from the slab: the epilogue of a state
// restore. It is the retune's layout from the width a fresh scheduler
// starts at, and it chains through the slab without allocating. Laying
// out in slab order rather than seq order changes no delivery: the
// calendar serves exactly (time, seq) order whatever its layout.
func (s *Scheduler) rebuildQueue() {
	q := &s.cal
	q.width, q.invWidth, q.nwSlot = 1, 1, 0
	q.rechain(s.slab)
	s.warmPos = 0
}

// EachQueued calls fn with the event held by every queued slot — live and
// cancelled alike — with its handle and whether it is still live, in slab
// order, stopping at the first error. Restores use it to vet decoded
// events against their owner's invariants.
func (s *Scheduler) EachQueued(fn func(ev Event, h Handle, live bool) error) error {
	for i := range s.slab {
		nd := &s.slab[i]
		if nd.state == slotFree {
			continue
		}
		ev := Event{Time: nd.time, Kind: nd.kind, Actor: nd.actor, Payload: nd.payload}
		if err := fn(ev, Handle{slot: int32(i + 1), gen: nd.gen}, nd.state == slotLive); err != nil {
			return err
		}
	}
	return nil
}

// CheckIntegrity audits the slab bookkeeping: the live counter must match
// the number of live slots, the free list must hold exactly the free slots
// with no duplicates, and the calendar must hold exactly the non-free
// slots (checkQueue). It is the scheduler's contribution to the kernel's
// periodic invariant audit.
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
	seen := make([]bool, len(s.slab))
	for _, sl := range s.free {
		if sl < 1 || int(sl) > len(s.slab) {
			return fmt.Errorf("des: free list references slot %d outside the %d-slot slab", sl, len(s.slab))
		}
		if seen[sl-1] {
			return fmt.Errorf("des: slot %d appears twice in the free list", sl)
		}
		seen[sl-1] = true
		if st := s.slab[sl-1].state; st != slotFree {
			return fmt.Errorf("des: free-listed slot %d has state %d, want free", sl, st)
		}
	}
	return s.checkQueue()
}

// checkQueue verifies the invariant a retune and a restore rebuild the
// wheel from: every non-free slot is chained in its day's bucket, or sits
// in the unserved drain batch, exactly once, no free slot is queued, and
// count is their number. Drain entries must still carry their nodes'
// (time, seq), or the batch serves them out of order.
func (s *Scheduler) checkQueue() error {
	q := &s.cal
	queued := make([]bool, len(s.slab))
	n := 0
	enter := func(slot int32, where string) error {
		if slot < 1 || int(slot) > len(s.slab) {
			return fmt.Errorf("des: %s references slot %d outside the %d-slot slab", where, slot, len(s.slab))
		}
		if s.slab[slot-1].state == slotFree {
			return fmt.Errorf("des: %s holds free slot %d", where, slot)
		}
		if queued[slot-1] {
			return fmt.Errorf("des: slot %d is queued twice (%s)", slot, where)
		}
		queued[slot-1] = true
		n++
		return nil
	}
	for b, head := range q.heads {
		for sl := head; sl != 0; sl = s.slab[sl-1].next {
			if err := enter(sl, "a calendar chain"); err != nil {
				return err
			}
			if got := q.dayOf(s.slab[sl-1].time) & q.mask; got != int64(b) {
				return fmt.Errorf("des: slot %d is chained in bucket %d but its time falls in bucket %d", sl, b, got)
			}
		}
	}
	for _, e := range q.drain[q.pos:] {
		if err := enter(e.slot, "the drain batch"); err != nil {
			return err
		}
		if nd := &s.slab[e.slot-1]; nd.time != e.time || nd.seq != e.seq {
			return fmt.Errorf("des: drain entry for slot %d carries (%v, seq %d) but the slab records (%v, seq %d)",
				e.slot, e.time, e.seq, nd.time, nd.seq)
		}
	}
	for i := range s.slab {
		if s.slab[i].state != slotFree && !queued[i] {
			return fmt.Errorf("des: pending slot %d is neither chained nor in the drain batch", i+1)
		}
	}
	if q.count != n {
		return fmt.Errorf("des: calendar counts %d entries but holds %d", q.count, n)
	}
	return nil
}
