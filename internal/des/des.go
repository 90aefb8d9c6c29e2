// Package des is a minimal discrete-event simulation kernel: a time-ordered
// event queue with deterministic tie-breaking and a scheduler that advances
// virtual time. Both the credit-market simulator (queue-granularity Jackson
// dynamics) and the churn machinery are built on it.
//
// The kernel is built for throughput: events are plain values (a kind tag,
// an actor index, and one payload word) held in a slab that is recycled
// through a free list, and ordered by a bucketed calendar queue: O(1)
// amortized per operation, delivering events in exact (time, seq) order.
// In steady state — events scheduled and fired at a matched rate — the
// scheduler performs zero heap allocations per event.
// Cancellation is O(1) through generation-counted handles; cancelled
// events are discarded lazily when they surface at the head of the queue.
package des

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/pad"
	"creditp2p/internal/prefetch"
)

// ErrPastTime is returned when an event is scheduled before the current
// simulation time.
var ErrPastTime = errors.New("des: event scheduled in the past")

// ErrBadTime is returned when an event is scheduled at a NaN time.
var ErrBadTime = errors.New("des: NaN event time")

// Event is one typed simulation event. The scheduler stores and returns
// events by value; the meaning of Kind, Actor and Payload is defined by the
// simulation that owns the scheduler.
type Event struct {
	// Time is the virtual time at which the event fires.
	Time float64
	// Payload is one free word of application data (a generation counter, a
	// table index, ...).
	Payload int64
	// Actor is the entity the event concerns, typically a dense peer index;
	// -1 conventionally means "the system".
	Actor int32
	// Kind tags the event type for dispatch.
	Kind uint16
}

// Handle identifies a scheduled event for cancellation. The zero Handle is
// invalid (never issued) and safe to Cancel. Handles are generation-counted:
// once the underlying slot is recycled a stale handle no longer matches and
// all operations on it are no-ops.
type Handle struct {
	slot int32 // 1-based slab index; 0 marks the invalid handle
	gen  uint32
}

// Valid reports whether the handle was issued by a scheduler (it may still
// refer to an already-fired or cancelled event).
func (h Handle) Valid() bool { return h.slot != 0 }

// node slot states.
const (
	slotFree uint8 = iota
	slotLive
	slotDead // cancelled but still buried in the queue
)

// node is one slab entry: the event value plus queue bookkeeping.
type node struct {
	time    float64
	payload int64
	actor   int32
	gen     uint32
	kind    uint16
	state   uint8
}

// QueueKind once selected between event-queue backends.
//
// Deprecated: the calendar queue is the only backend; QueueKind selects
// nothing and remains only so existing callers compile.
type QueueKind int

// Calendar is the former selector value of the calendar queue.
//
// Deprecated: see QueueKind.
const Calendar QueueKind = 1

// Checkpoint segment granularity: SaveState writes the slab in segments
// of slabSegSize slots, each listed by its id (the snapshot layout; a
// segment's per-field spans total ~18 KB).
const (
	slabSegShift = 9
	slabSegSize  = 1 << slabSegShift
)

// Scheduler owns virtual time and the pending event set. It is not safe for
// concurrent use; a simulation is a single-goroutine loop.
type Scheduler struct {
	now     float64
	seq     uint64
	slab    []node
	seqOf   []uint64      // per-slot seq of the occupying entry (slab-parallel)
	free    []int32       // recycled slab slots
	cal     calendarQueue // pending events, ordered by (time, seq)
	live    int           // scheduled and not cancelled
	fired   uint64
	dropped uint64
	// enc is the recycled per-field extraction scratch for state captures,
	// held by value: a sharded lane fills it during the parallel checkpoint
	// encode, so its headers must sit in the lane's own blocks.
	enc encScratch
	// warmPos is the drain-batch index pop's slab prefetch has reached.
	warmPos int
}

// NewScheduler returns a scheduler at time 0 with no pending events.
func NewScheduler() *Scheduler {
	s := new(Scheduler)
	s.Init()
	return s
}

// Init readies a zero Scheduler, such as one embedded by value in a larger
// struct, at time 0 with no pending events. The small per-event buffers
// start at one whole pad.Block each (see the pad package): a sharded lane
// writes them on every event, and a smaller first allocation would share
// a cache line with whatever the allocator placed next to it.
func (s *Scheduler) Init() {
	*s = Scheduler{
		slab:  pad.Make[node](0),
		seqOf: pad.Make[uint64](0),
		free:  pad.Make[int32](0),
		cal:   newCalendarQueue(),
	}
}

// Reserve sizes the slab and the calendar's per-slot storage for n slots
// in all: a scheduler that never holds more than n events at once, live
// and cancelled-but-unsurfaced together, then schedules, retunes and
// restores without growing them. Each buffer grows at most once, in one
// whole-block step (pad.Grow); slot numbering is unchanged, since slots
// are still handed out in slab order.
func (s *Scheduler) Reserve(n int) {
	s.slab = pad.Grow(s.slab, n-len(s.slab))
	s.seqOf = pad.Grow(s.seqOf, n-len(s.seqOf))
	s.cal.slots = pad.Grow(s.cal.slots, n-len(s.cal.slots))
	s.cal.scratch = pad.Grow(s.cal.scratch, n-len(s.cal.scratch))
}

// NewSchedulerKind returns NewScheduler().
//
// Deprecated: see QueueKind.
func NewSchedulerKind(QueueKind) *Scheduler { return NewScheduler() }

// Now returns the current virtual time.
func (s *Scheduler) Now() float64 { return s.now }

// Fired returns the number of events that have been delivered.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, not-yet-cancelled events.
func (s *Scheduler) Pending() int { return s.live }

// ScheduleAt registers an event at absolute time t and returns its handle.
func (s *Scheduler) ScheduleAt(t float64, kind uint16, actor int32, payload int64) (Handle, error) {
	if math.IsNaN(t) {
		return Handle{}, ErrBadTime
	}
	if t < s.now {
		return Handle{}, fmt.Errorf("%w: t=%v now=%v", ErrPastTime, t, s.now)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slab = append(s.slab, node{})
		s.seqOf = append(s.seqOf, 0)
		slot = int32(len(s.slab)) // 1-based
	}
	nd := &s.slab[slot-1]
	nd.time = t
	nd.payload = payload
	nd.actor = actor
	nd.kind = kind
	nd.state = slotLive
	s.seqOf[slot-1] = s.seq
	s.cal.push(t, s.seq, slot)
	s.seq++
	s.live++
	return Handle{slot: slot, gen: nd.gen}, nil
}

// Schedule registers an event after the given non-negative delay.
func (s *Scheduler) Schedule(delay float64, kind uint16, actor int32, payload int64) (Handle, error) {
	return s.ScheduleAt(s.now+delay, kind, actor, payload)
}

// Cancel marks the event so it will not be delivered. Cancelling an already
// fired, already cancelled, or invalid handle is a no-op. Cancellation is
// O(1); the dead slot is discarded lazily when it surfaces in the queue.
// It reports whether a pending event was actually cancelled.
func (s *Scheduler) Cancel(h Handle) bool {
	if h.slot < 1 || int(h.slot) > len(s.slab) {
		return false
	}
	nd := &s.slab[h.slot-1]
	if nd.gen != h.gen || nd.state != slotLive {
		return false
	}
	nd.state = slotDead
	s.live--
	return true
}

// Step delivers the earliest pending event. It reports whether one fired.
func (s *Scheduler) Step(deliver func(Event)) bool {
	ev, ok := s.pop(math.Inf(1))
	if !ok {
		return false
	}
	s.fired++
	deliver(ev)
	return true
}

// RunUntil delivers events in time order until the queue is empty or the
// next event is after horizon. Time is left at the later of the last fired
// event and horizon. It returns the number of events delivered.
func (s *Scheduler) RunUntil(horizon float64, deliver func(Event)) uint64 {
	var fired uint64
	for {
		ev, ok := s.pop(horizon)
		if !ok {
			break
		}
		s.fired++
		fired++
		deliver(ev)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return fired
}

// Drain delivers all pending events regardless of time, leaving virtual
// time at the last fired event. Intended for tests.
func (s *Scheduler) Drain(deliver func(Event)) uint64 {
	var fired uint64
	for {
		ev, ok := s.pop(math.Inf(1))
		if !ok {
			break
		}
		s.fired++
		fired++
		deliver(ev)
	}
	return fired
}

// pop removes and returns the earliest live event with time <= horizon,
// advancing virtual time to it. Dead (cancelled) slots encountered at the
// head are freed and skipped.
func (s *Scheduler) pop(horizon float64) (Event, bool) {
	q := &s.cal
	for {
		if !q.draining() {
			if !q.peek() {
				return Event{}, false
			}
			s.warmPos = 0
		}
		head := q.drain[q.pos]
		if s.warmPos < len(q.drain) && q.pos+32 > s.warmPos {
			// The drain batch's serve order is known ahead of time, so
			// prefetch the slab nodes it will visit, staying a chunk in
			// front of the cursor: at large populations each pop's slab
			// access is a cache miss, and issuing the batch's fetches
			// together overlaps them instead of paying one serialized miss
			// per event. (Exponential pending-time distributions make the
			// front days dense, so batches can run to hundreds of entries —
			// prefetching in chunks keeps the touched window inside L1
			// instead of thrashing it.)
			d := q.drain
			lim := q.pos + 96
			if lim > len(d) {
				lim = len(d)
			}
			for i := s.warmPos; i < lim; i++ {
				prefetch.Of(&s.slab[d[i].slot-1])
			}
			s.warmPos = lim
		}
		q.prewalkStep()
		nd := &s.slab[head.slot-1]
		if nd.state == slotDead {
			q.removeHead()
			s.recycle(head.slot)
			s.dropped++
			continue
		}
		if head.time > horizon {
			return Event{}, false
		}
		ev := Event{Time: head.time, Kind: nd.kind, Actor: nd.actor, Payload: nd.payload}
		q.removeHead()
		s.recycle(head.slot)
		s.live--
		s.now = ev.Time
		return ev, true
	}
}

// UpcomingActor returns the actor of the k-th event after the current
// queue head when the calendar's sorted drain batch holds it; ok is false
// when fewer than k+1 entries are left in the batch. It is a prefetch hint
// for callers that want to warm per-actor state ahead of delivery: the
// result may include cancelled events and never affects what pop returns.
func (s *Scheduler) UpcomingActor(k int) (int32, bool) {
	i := s.cal.pos + k
	if i >= len(s.cal.drain) {
		return 0, false
	}
	return s.slab[s.cal.drain[i].slot-1].actor, true
}

// recycle returns a slot to the free list, invalidating outstanding handles.
func (s *Scheduler) recycle(slot int32) {
	nd := &s.slab[slot-1]
	nd.state = slotFree
	nd.gen++
	s.free = append(s.free, slot)
}
