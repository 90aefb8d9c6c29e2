package des

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"creditp2p/internal/xrand"
)

// collect drains events into a slice for assertions.
func collect(dst *[]Event) func(Event) {
	return func(ev Event) { *dst = append(*dst, ev) }
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	times := []float64{5, 1, 3, 2, 4}
	for i, at := range times {
		if _, err := s.ScheduleAt(at, 0, int32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	var fired []Event
	s.RunUntil(10, collect(&fired))
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].Time < fired[i-1].Time {
			t.Errorf("events out of order: %v", fired)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		if _, err := s.ScheduleAt(1, 0, int32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	var fired []Event
	s.RunUntil(2, collect(&fired))
	for i, ev := range fired {
		if ev.Actor != int32(i) {
			t.Fatalf("tie-break not FIFO: %v", fired)
		}
	}
}

func TestEventCarriesKindActorPayload(t *testing.T) {
	s := NewScheduler()
	if _, err := s.ScheduleAt(2.5, 7, 42, -99); err != nil {
		t.Fatal(err)
	}
	var fired []Event
	s.RunUntil(10, collect(&fired))
	if len(fired) != 1 {
		t.Fatalf("fired %d events, want 1", len(fired))
	}
	ev := fired[0]
	if ev.Time != 2.5 || ev.Kind != 7 || ev.Actor != 42 || ev.Payload != -99 {
		t.Errorf("event = %+v, want {2.5 -99 42 7}", ev)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	for _, at := range []float64{1, 2, 3, 7, 9} {
		if _, err := s.ScheduleAt(at, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	fired := 0
	count := func(Event) { fired++ }
	n := s.RunUntil(5, count)
	if n != 3 || fired != 3 {
		t.Errorf("fired %d/%d events before horizon, want 3", n, fired)
	}
	if s.Now() != 5 {
		t.Errorf("Now() = %v, want horizon 5", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	// Resume to the end.
	n = s.RunUntil(10, count)
	if n != 2 || fired != 5 {
		t.Errorf("resume fired %d (total %d), want 2 (5)", n, fired)
	}
}

func TestScheduleRelativeFromHandler(t *testing.T) {
	s := NewScheduler()
	if _, err := s.ScheduleAt(4, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	var at float64
	s.RunUntil(100, func(ev Event) {
		switch ev.Kind {
		case 1:
			if _, err := s.Schedule(2.5, 2, 0, 0); err != nil {
				t.Error(err)
			}
		case 2:
			at = s.Now()
		}
	})
	if at != 6.5 {
		t.Errorf("nested relative event fired at %v, want 6.5", at)
	}
}

func TestSchedulePastReturnsError(t *testing.T) {
	s := NewScheduler()
	if _, err := s.ScheduleAt(5, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(5, func(Event) {})
	if _, err := s.ScheduleAt(4, 0, 0, 0); !errors.Is(err, ErrPastTime) {
		t.Errorf("error = %v, want ErrPastTime", err)
	}
}

func TestNaNTimeRejected(t *testing.T) {
	s := NewScheduler()
	if _, err := s.ScheduleAt(math.NaN(), 0, 0, 0); !errors.Is(err, ErrBadTime) {
		t.Errorf("error = %v, want ErrBadTime", err)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	h, err := s.ScheduleAt(1, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Error("issued handle not Valid")
	}
	if !s.Cancel(h) {
		t.Error("Cancel returned false for a pending event")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after cancel, want 0", s.Pending())
	}
	fired := 0
	s.RunUntil(10, func(Event) { fired++ })
	if fired != 0 {
		t.Error("cancelled event fired")
	}
	// Double cancel is a no-op.
	if s.Cancel(h) {
		t.Error("second Cancel returned true")
	}
	// The zero handle is invalid and inert.
	if s.Cancel(Handle{}) {
		t.Error("zero handle not inert")
	}
}

func TestCancelInterleaved(t *testing.T) {
	s := NewScheduler()
	handles := make([]Handle, 10)
	for i := 0; i < 10; i++ {
		h, err := s.ScheduleAt(float64(i), 0, int32(i), 0)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i := 0; i < 10; i += 2 {
		s.Cancel(handles[i])
	}
	var fired []Event
	s.RunUntil(100, collect(&fired))
	want := []int32{1, 3, 5, 7, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want actors %v", fired, want)
	}
	for i := range want {
		if fired[i].Actor != want[i] {
			t.Fatalf("fired %v, want actors %v", fired, want)
		}
	}
}

func TestStaleHandleAfterRecycleIsInert(t *testing.T) {
	// A handle must not cancel an unrelated event that reuses its slot.
	s := NewScheduler()
	h1, err := s.ScheduleAt(1, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(1, func(Event) {}) // fires h1, recycling its slot
	h2, err := s.ScheduleAt(2, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.slot != h1.slot {
		t.Fatalf("test setup: expected slot reuse, got %d then %d", h1.slot, h2.slot)
	}
	if s.Cancel(h1) {
		t.Error("stale handle cancelled a recycled slot")
	}
	var fired []Event
	s.RunUntil(10, collect(&fired))
	if len(fired) != 1 || fired[0].Actor != 2 {
		t.Errorf("second event lost: fired %v", fired)
	}
	if s.Cancel(h2) {
		t.Error("fired handle still cancellable")
	}
}

func TestHandlerSchedulingAtCurrentTime(t *testing.T) {
	// An event may schedule another at the same timestamp; it must fire in
	// the same run, after the current event (FIFO among equal times).
	s := NewScheduler()
	if _, err := s.ScheduleAt(1, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	var order []uint16
	s.RunUntil(1, func(ev Event) {
		order = append(order, ev.Kind)
		if ev.Kind == 1 {
			if _, err := s.Schedule(0, 2, 0, 0); err != nil {
				t.Error(err)
			}
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("order = %v, want [1 2]", order)
	}
}

func TestDrain(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		if _, err := s.ScheduleAt(float64(i*1000), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	if n := s.Drain(func(Event) { count++ }); n != 5 || count != 5 {
		t.Errorf("Drain fired %d (count %d), want 5", n, count)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", s.Pending())
	}
}

func TestScheduleAfterDrain(t *testing.T) {
	// Drain must leave virtual time at the last fired event, not at the
	// +Inf horizon — scheduling afterwards has to keep working.
	s := NewScheduler()
	if _, err := s.ScheduleAt(7, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.Drain(func(Event) {})
	if s.Now() != 7 {
		t.Fatalf("Now() = %v after Drain, want 7", s.Now())
	}
	if _, err := s.ScheduleAt(8, 0, 1, 0); err != nil {
		t.Fatalf("ScheduleAt after Drain: %v", err)
	}
	var fired []Event
	s.RunUntil(10, collect(&fired))
	if len(fired) != 1 || fired[0].Time != 8 {
		t.Fatalf("post-drain event lost: %v", fired)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 3; i++ {
		if _, err := s.ScheduleAt(float64(i), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(10, func(Event) {})
	if s.Fired() != 3 {
		t.Errorf("Fired() = %d, want 3", s.Fired())
	}
}

func TestStepDeliversOne(t *testing.T) {
	s := NewScheduler()
	if _, err := s.ScheduleAt(3, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	fired := 0
	if !s.Step(func(Event) { fired++ }) || fired != 1 {
		t.Fatalf("Step did not deliver")
	}
	if s.Now() != 3 {
		t.Errorf("Now() = %v after Step, want 3", s.Now())
	}
	if s.Step(func(Event) { fired++ }) {
		t.Error("Step on empty queue reported an event")
	}
}

func TestSlotReuseKeepsQueueConsistent(t *testing.T) {
	// Heavy schedule/cancel/fire churn across free-list recycling must keep
	// delivery in time order with exactly the live events delivered.
	r := xrand.New(42)
	s := NewScheduler()
	live := 0
	var handles []Handle
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			h, err := s.Schedule(r.Float64()*10, 0, int32(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
			live++
		}
		// Cancel a random third of outstanding handles (stale ones no-op).
		for i := 0; i < len(handles)/3; i++ {
			h := handles[r.Intn(len(handles))]
			if s.Cancel(h) {
				live--
			}
		}
		var prev float64
		s.RunUntil(s.Now()+5, func(ev Event) {
			if ev.Time < prev {
				t.Fatalf("delivery out of order: %v after %v", ev.Time, prev)
			}
			prev = ev.Time
			live--
		})
	}
	s.Drain(func(Event) { live-- })
	if live != 0 {
		t.Errorf("live-event accounting off by %d", live)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", s.Pending())
	}
}

func TestOrderingProperty(t *testing.T) {
	// Property: random schedules always fire in non-decreasing time order
	// and exactly once each.
	f := func(seed int64, nSeed uint8) bool {
		n := int(nSeed%50) + 1
		r := xrand.New(seed)
		s := NewScheduler()
		for i := 0; i < n; i++ {
			at := math.Floor(r.Float64()*100) / 10 // coarse grid forces ties
			if _, err := s.ScheduleAt(at, 0, 0, 0); err != nil {
				return false
			}
		}
		var times []float64
		s.RunUntil(1000, func(Event) { times = append(times, s.Now()) })
		if len(times) != n {
			return false
		}
		return sort.Float64sAreSorted(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	// The tentpole guarantee: once the slab and calendar are warm,
	// scheduling and firing events allocates nothing — the wheel growing
	// and shrinking every cycle included.
	s := NewScheduler()
	r := xrand.New(1)
	for i := 0; i < 1024; i++ { // warm the slab, calendar and free list
		if _, err := s.Schedule(r.Float64(), 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain(func(Event) {})
	nop := func(Event) {}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			if _, err := s.Schedule(r.Float64(), 0, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain(nop)
	})
	if avg != 0 {
		t.Errorf("steady-state allocs per drain cycle = %v, want 0", avg)
	}
}

// TestNodeSize pins the slab node, every pending event's one record, at
// 40 bytes: the calendar chains through it, so a field added to it is
// paid once per event slot at every population.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 40 {
		t.Fatalf("node is %d bytes, want 40", n)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := NewScheduler()
	r := xrand.New(1)
	nop := func(Event) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(r.Float64(), 0, 0, 0); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			s.Drain(nop)
		}
	}
	s.Drain(nop)
}

// TestUpcomingActor checks the read-ahead view of the drain batch. After
// every pop, UpcomingActor(k) must name the k-th entry after the new head
// in (time, seq) order, cancelled entries included, for every k the batch
// holds, and report false from the batch's end on, which must fall on a
// day boundary. Calls at the read-ahead distances 4 and 8 before every pop
// must leave the fired sequence unchanged, with events scheduled into the
// batch being drained as well.
func TestUpcomingActor(t *testing.T) {
	const n = 400
	build := func() (*Scheduler, []bool) {
		r := xrand.New(7)
		s := NewScheduler()
		cancelled := make([]bool, n)
		for i := range n {
			at := math.Floor(r.Float64()*400) / 100 // coarse grid forces ties
			h, err := s.ScheduleAt(at, 0, int32(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			if r.Intn(5) == 0 {
				s.Cancel(h)
				cancelled[i] = true
			}
		}
		return s, cancelled
	}

	// The reference order: the actors by (time, scheduling order), which
	// is the scheduler's (time, seq) order.
	s, cancelled := build()
	times := make([]float64, n)
	for i := range n {
		times[i] = s.slab[i].time
	}
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = int32(i)
	}
	sort.SliceStable(ref, func(a, b int) bool { return times[ref[a]] < times[ref[b]] })
	pos := make([]int, n)
	for i, a := range ref {
		pos[a] = i
	}

	var sawCancelled, sawBatchEnd, sawFar bool
	for s.Step(func(ev Event) {
		head := pos[ev.Actor] + 1
		left := len(s.cal.drain) - s.cal.pos
		if left > 0 && head+left < n {
			last, next := ref[head+left-1], ref[head+left]
			if s.cal.dayOf(times[last]) == s.cal.dayOf(times[next]) {
				t.Fatalf("the drain batch ends inside a day, between t=%v and t=%v", times[last], times[next])
			}
		}
		for k := 0; k < left+3; k++ {
			g, ok := s.UpcomingActor(k)
			if k >= left {
				if ok {
					t.Fatalf("UpcomingActor(%d) = %d with %d entries left in the batch, want false", k, g, left)
				}
				sawBatchEnd = sawBatchEnd || head+k < n
				continue
			}
			if !ok || g != ref[head+k] {
				t.Fatalf("UpcomingActor(%d) after actor %d = (%d, %v), want (%d, true)", k, ev.Actor, g, ok, ref[head+k])
			}
			sawCancelled = sawCancelled || cancelled[g]
			sawFar = sawFar || k >= 8
		}
	}) {
	}
	if !sawCancelled || !sawBatchEnd || !sawFar {
		t.Fatalf("cases not exercised: cancelled %v, batch end with events pending %v, k >= 8 %v", sawCancelled, sawBatchEnd, sawFar)
	}

	// Pop order with and without the read-ahead calls, each handler
	// rescheduling its actor a little later (some into the day being
	// drained) until t = 20.
	run := func(peek bool) []Event {
		s, _ := build()
		r := xrand.New(11)
		var fired []Event
		for {
			if peek {
				s.UpcomingActor(4)
				s.UpcomingActor(8)
			}
			if !s.Step(func(ev Event) {
				fired = append(fired, ev)
				if at := ev.Time + r.Float64()*0.5; at < 20 {
					if _, err := s.ScheduleAt(at, 0, ev.Actor, 0); err != nil {
						t.Fatal(err)
					}
				}
			}) {
				return fired
			}
		}
	}
	plain, peeked := run(false), run(true)
	if len(plain) != len(peeked) {
		t.Fatalf("fired %d events with read-ahead calls, %d without", len(peeked), len(plain))
	}
	for i := range plain {
		if plain[i] != peeked[i] {
			t.Fatalf("event %d: %+v with read-ahead calls, %+v without", i, peeked[i], plain[i])
		}
	}
}
