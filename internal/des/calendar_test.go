package des

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"creditp2p/internal/xrand"
)

// oracle mirrors a scheduler's pending set as a plain slice and predicts
// every delivery by sorting it on (time, seq) — the specification the
// calendar queue must reproduce exactly. Each event's payload is its seq,
// so a delivery identifies the entry it came from.
type oracle struct {
	t       *testing.T
	s       *Scheduler
	pending []oracleEntry
	want    []oracleEntry
	got     []Event
	seq     uint64
	ops     int
}

type oracleEntry struct {
	time float64
	seq  uint64
	h    Handle
}

func cmpOracle(a, b oracleEntry) int {
	switch {
	case a.time < b.time:
		return -1
	case a.time > b.time:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

func newOracle(t *testing.T) *oracle {
	return &oracle{t: t, s: NewScheduler()}
}

// schedule arms an event at absolute time at and returns its seq.
func (o *oracle) schedule(at float64) uint64 {
	o.t.Helper()
	h, err := o.s.ScheduleAt(at, 0, 0, int64(o.seq))
	if err != nil {
		o.t.Fatal(err)
	}
	o.pending = append(o.pending, oracleEntry{time: at, seq: o.seq, h: h})
	o.seq++
	o.settle()
	return o.seq - 1
}

// cancel cancels the i-th pending entry (in the oracle's storage order).
func (o *oracle) cancel(i int) {
	o.t.Helper()
	if !o.s.Cancel(o.pending[i].h) {
		o.t.Fatalf("op %d: Cancel of pending seq %d reported nothing to cancel", o.ops, o.pending[i].seq)
	}
	o.pending[i] = o.pending[len(o.pending)-1]
	o.pending = o.pending[:len(o.pending)-1]
	o.settle()
}

// step delivers one event; the oracle's expectation is the pending minimum.
func (o *oracle) step() {
	o.t.Helper()
	o.want = o.want[:0]
	if len(o.pending) > 0 {
		m := 0
		for i := range o.pending {
			if cmpOracle(o.pending[i], o.pending[m]) < 0 {
				m = i
			}
		}
		o.want = append(o.want, o.pending[m])
		o.pending[m] = o.pending[len(o.pending)-1]
		o.pending = o.pending[:len(o.pending)-1]
	}
	o.got = o.got[:0]
	o.s.Step(func(ev Event) { o.got = append(o.got, ev) })
	o.compare()
}

// runUntil delivers every event with time <= horizon.
func (o *oracle) runUntil(horizon float64) {
	o.t.Helper()
	o.take(horizon)
	o.got = o.got[:0]
	o.s.RunUntil(horizon, func(ev Event) { o.got = append(o.got, ev) })
	o.compare()
}

// drain delivers everything left.
func (o *oracle) drain() {
	o.t.Helper()
	o.take(math.Inf(1))
	o.got = o.got[:0]
	o.s.Drain(func(ev Event) { o.got = append(o.got, ev) })
	o.compare()
	if err := o.s.CheckIntegrity(); err != nil {
		o.t.Fatalf("after the final drain: %v", err)
	}
}

// take moves the pending entries due by horizon into want, sorted.
func (o *oracle) take(horizon float64) {
	o.want = o.want[:0]
	keep := o.pending[:0]
	for _, e := range o.pending {
		if e.time <= horizon {
			o.want = append(o.want, e)
		} else {
			keep = append(keep, e)
		}
	}
	o.pending = keep
	slices.SortFunc(o.want, cmpOracle)
}

func (o *oracle) compare() {
	o.t.Helper()
	if len(o.got) != len(o.want) {
		o.t.Fatalf("op %d: delivered %d events, oracle expects %d", o.ops, len(o.got), len(o.want))
	}
	for i, ev := range o.got {
		if w := o.want[i]; ev.Time != w.time || uint64(ev.Payload) != w.seq {
			o.t.Fatalf("op %d: delivery %d is (t=%v, seq %d), oracle expects (t=%v, seq %d)",
				o.ops, i, ev.Time, ev.Payload, w.time, w.seq)
		}
	}
	o.settle()
}

// settle checks the pending count after every operation and runs the full
// integrity audit every 256 operations.
func (o *oracle) settle() {
	o.t.Helper()
	o.ops++
	if o.s.Pending() != len(o.pending) {
		o.t.Fatalf("op %d: Pending() = %d, oracle holds %d", o.ops, o.s.Pending(), len(o.pending))
	}
	if o.ops%256 == 0 {
		if err := o.s.CheckIntegrity(); err != nil {
			o.t.Fatalf("op %d: %v", o.ops, err)
		}
	}
}

// delivered reports whether the entry with the given seq has left the
// oracle's pending set (fired or cancelled).
func (o *oracle) delivered(seq uint64) bool {
	for _, e := range o.pending {
		if e.seq == seq {
			return false
		}
	}
	return true
}

// randomScript drives o through ops random schedules, cancels, steps and
// bounded runs, with event delays drawn from one of four shapes, then
// drains it.
func randomScript(o *oracle, r *xrand.RNG, ops int, shape int) {
	delay := func() float64 {
		switch shape {
		case 0: // uniform
			return r.Float64() * 10
		case 1: // exponential: the simulators' own gap distribution
			return r.Exponential(1)
		case 2: // coarse grid: heavy (time, seq) ties
			return math.Floor(r.Float64()*8) / 2
		default: // near events with rare far-future outliers
			if r.Float64() < 0.02 {
				return 1e9 * (1 + r.Float64())
			}
			return r.Float64()
		}
	}
	// The mix alternates between growing and shrinking phases so the
	// wheel retunes both ways with day batches in flight.
	grow := 0.7
	for i := 0; i < ops; i++ {
		if r.Float64() < 0.005 {
			grow = 1 - grow
		}
		switch u := r.Float64(); {
		case u < 0.05 && len(o.pending) > 0:
			o.cancel(r.Intn(len(o.pending)))
		case u < 0.02+grow:
			o.schedule(o.s.Now() + delay())
		case u < 0.98:
			o.step()
		default:
			o.runUntil(o.s.Now() + delay()*r.Float64())
		}
	}
	o.drain()
}

// TestCalendarSpliceSurvivesRetune is the regression test for the stale
// re-chain. An entry pushed into the calendar day being drained is spliced
// into the drain batch only; its per-slot key storage still holds a
// previous occupant's (time, seq) or zeros. A retune re-chains the batch's
// unserved entries, so it must write their keys — otherwise the entry
// resurfaces under the stale key and virtual time runs backwards. The script
// forces a grow retune and then a shrink retune, each with a spliced entry
// still unserved.
func TestCalendarSpliceSurvivesRetune(t *testing.T) {
	o := newOracle(t)
	q := &o.s.cal
	r := xrand.New(5)
	for i := 0; i < 8; i++ {
		o.schedule(1 + float64(i)/16)
	}
	o.step() // drains day 1 into the batch and serves its head
	// A thousand pushes into day 1 are all spliced into the batch; splices
	// never resize the wheel, so it keeps its 16 buckets.
	for i := 0; i < 1000; i++ {
		o.schedule(1 + 0.99*r.Float64())
	}
	first := o.schedule(1.995)
	if !q.draining() || len(q.drain)-q.pos != 1008 || len(q.heads) != calMinBuckets {
		t.Fatalf("splice setup: draining=%v batch=%d buckets=%d, want a 1008-entry batch on %d buckets",
			q.draining(), len(q.drain)-q.pos, len(q.heads), calMinBuckets)
	}
	// One push to a later day crosses the grow bound.
	o.schedule(5)
	grown := len(q.heads)
	if grown <= calMinBuckets || o.delivered(first) {
		t.Fatalf("grow retune: %d buckets, spliced entry served=%v", grown, o.delivered(first))
	}
	if err := o.s.CheckIntegrity(); err != nil {
		t.Fatalf("after the grow retune: %v", err)
	}
	// Serve toward the shrink bound; just before it, splice a second entry
	// behind the batch's last one so the shrink re-chains it unserved.
	second, spliced := uint64(0), false
	for len(q.heads) == grown {
		if !spliced && q.draining() && len(q.drain)-q.pos >= 4 && 4*q.count < len(q.heads)+8 {
			n := len(q.drain)
			second, spliced = o.schedule(q.drain[n-1].time), true
			if len(q.drain) != n+1 {
				t.Fatal("the second push was not spliced into the batch")
			}
		}
		o.step()
	}
	if !spliced || len(q.heads) >= grown || o.delivered(first) || o.delivered(second) {
		t.Fatalf("shrink retune: spliced=%v buckets %d -> %d, served first=%v second=%v",
			spliced, grown, len(q.heads), o.delivered(first), o.delivered(second))
	}
	if err := o.s.CheckIntegrity(); err != nil {
		t.Fatalf("after the shrink retune: %v", err)
	}
	o.drain()
}

// TestCalendarMatchesOracle replays scripted workloads against the sorting
// oracle: every delivery must be the oracle's exact (time, seq) minimum.
func TestCalendarMatchesOracle(t *testing.T) {
	t.Run("fill-drain", func(t *testing.T) {
		// Each cycle grows the wheel to 128 buckets and shrinks it back.
		o := newOracle(t)
		r := xrand.New(1)
		for cycle := 0; cycle < 20; cycle++ {
			for i := 0; i < 512; i++ {
				o.schedule(o.s.Now() + r.Float64())
			}
			o.drain()
		}
	})
	t.Run("all-equal", func(t *testing.T) {
		// Identical times defeat the width estimate: one day holds the
		// whole pending set and only seq orders it.
		o := newOracle(t)
		r := xrand.New(2)
		for round := 0; round < 10; round++ {
			at := o.s.Now() + 1
			for i := 0; i < 300; i++ {
				o.schedule(at)
				if r.Float64() < 0.1 {
					o.cancel(r.Intn(len(o.pending)))
				}
			}
			for i := 0; i < 100; i++ {
				o.step()
				o.schedule(at) // spliced into the batch at its tail
			}
			o.runUntil(at)
		}
		o.drain()
	})
	t.Run("far-future", func(t *testing.T) {
		// Outliers stretch the width estimate; the near events then share
		// a handful of days, and the sparse-lap scan must find the
		// outliers once the near events are gone.
		o := newOracle(t)
		r := xrand.New(3)
		for round := 0; round < 20; round++ {
			for i := 0; i < 200; i++ {
				o.schedule(o.s.Now() + r.Float64())
			}
			o.schedule(o.s.Now() + 1e12*r.Float64())
			o.schedule(math.Inf(1))
			o.runUntil(o.s.Now() + 0.5)
		}
		o.runUntil(o.s.Now() + 10)
		o.drain()
	})
	t.Run("cancels", func(t *testing.T) {
		o := newOracle(t)
		r := xrand.New(4)
		for round := 0; round < 200; round++ {
			for i := 0; i < 40; i++ {
				o.schedule(o.s.Now() + 10*r.Float64())
			}
			for i := 0; i < 15 && len(o.pending) > 0; i++ {
				o.cancel(r.Intn(len(o.pending)))
			}
			o.runUntil(o.s.Now() + 2)
		}
		o.drain()
	})
	t.Run("growth", func(t *testing.T) {
		// Pending grows from 1 to 10k while events are served, crossing
		// every grow bound with a batch in flight.
		o := newOracle(t)
		r := xrand.New(5)
		o.schedule(r.Exponential(1))
		for o.s.Pending() < 10_000 {
			o.schedule(o.s.Now() + 100*r.Exponential(1))
			o.schedule(o.s.Now() + 100*r.Exponential(1))
			o.step()
		}
		o.drain()
	})
}

// TestCalendarMatchesOracleProperty replays random scripts across the four
// delay shapes.
func TestCalendarMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, shape, lenSeed uint8) bool {
		o := newOracle(t)
		randomScript(o, xrand.New(seed), 500+int(lenSeed)*8, int(shape%4))
		return true // randomScript fails the test itself on any mismatch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCalendarTiesFIFO(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		if _, err := s.ScheduleAt(5, 0, int32(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	i := int32(0)
	s.RunUntil(10, func(ev Event) {
		if ev.Actor != i {
			t.Fatalf("tie-break not FIFO at %d: actor %d", i, ev.Actor)
		}
		i++
	})
	if i != 100 {
		t.Fatalf("delivered %d of 100 simultaneous events", i)
	}
}

func TestCalendarScheduleBehindScanPosition(t *testing.T) {
	// A far-future event advances the calendar's scan day; an event then
	// scheduled much earlier (but after now) must still fire first.
	s := NewScheduler()
	if _, err := s.ScheduleAt(1e6, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := s.RunUntil(10, func(Event) {}); n != 0 {
		t.Fatalf("far-future event fired early (%d)", n)
	}
	if _, err := s.ScheduleAt(20, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	var kinds []uint16
	s.Drain(func(ev Event) { kinds = append(kinds, ev.Kind) })
	if len(kinds) != 2 || kinds[0] != 2 || kinds[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1]", kinds)
	}
}

func TestCalendarShrinksAfterDrain(t *testing.T) {
	s := NewScheduler()
	r := xrand.New(4)
	for i := 0; i < 4096; i++ {
		if _, err := s.Schedule(r.Float64()*100, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	grown := len(s.cal.heads)
	if grown <= calMinBuckets {
		t.Fatalf("wheel did not grow: %d buckets for 4096 events", grown)
	}
	s.Drain(func(Event) {})
	if got := len(s.cal.heads); got != calMinBuckets {
		t.Errorf("wheel kept %d buckets after drain, want %d", got, calMinBuckets)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after drain", s.Pending())
	}
}

// TestCheckIntegrityCatchesQueueFaults corrupts a scheduler mid-drain in
// each way the calendar's invariant can break — the invariant a retune and
// a restore rebuild the wheel from — and requires CheckIntegrity to name
// it: every non-free slot chained in its day's bucket or in the unserved
// drain batch exactly once, no free slot queued, count equal to their
// number, and drain entries keyed like their nodes.
func TestCheckIntegrityCatchesQueueFaults(t *testing.T) {
	setup := func(t *testing.T) (*Scheduler, int32) {
		s := NewScheduler()
		r := xrand.New(11)
		var hs []Handle
		for i := 0; i < 400; i++ {
			h, err := s.Schedule(r.Exponential(1), 0, int32(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		for i := 0; i < 40; i++ {
			s.Cancel(hs[r.Intn(len(hs))])
		}
		for i := 0; i < 50; i++ {
			s.Step(func(Event) {})
		}
		if !s.cal.draining() {
			t.Fatal("setup left no drain batch in flight")
		}
		if err := s.CheckIntegrity(); err != nil {
			t.Fatalf("before the fault: %v", err)
		}
		for _, h := range s.cal.heads {
			if h != 0 {
				return s, h
			}
		}
		t.Fatal("setup left nothing chained")
		return nil, 0
	}
	cases := []struct {
		name, want string
		fault      func(s *Scheduler, chained int32)
	}{
		{"recycled slot left chained", "holds free slot", func(s *Scheduler, chained int32) {
			if s.slab[chained-1].state == slotLive {
				s.live--
			}
			s.recycle(chained)
		}},
		{"pending slot unlinked", "neither chained nor in the drain batch", func(s *Scheduler, chained int32) {
			q := &s.cal
			b := q.dayOf(s.slab[chained-1].time) & q.mask
			q.heads[b] = s.slab[chained-1].next
			q.count--
		}},
		{"count drift", "calendar counts", func(s *Scheduler, _ int32) { s.cal.count++ }},
		{"stale drain key", "drain entry", func(s *Scheduler, _ int32) {
			s.slab[s.cal.drain[s.cal.pos].slot-1].seq += 1 << 40
		}},
		{"drained slot also chained", "queued twice", func(s *Scheduler, _ int32) {
			q := &s.cal
			d := q.drain[len(q.drain)-1].slot
			b := q.dayOf(s.slab[d-1].time) & q.mask
			s.slab[d-1].next = q.heads[b]
			q.heads[b] = d
		}},
		{"chained in the wrong bucket", "its time falls in bucket", func(s *Scheduler, chained int32) {
			s.slab[chained-1].time += s.cal.width
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, chained := setup(t)
			c.fault(s, chained)
			err := s.CheckIntegrity()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckIntegrity = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// benchLargePending measures the hold model at a large steady pending set
// (the million-peer regime: one armed spend per peer).
func benchLargePending(b *testing.B, pending int) {
	s := NewScheduler()
	r := xrand.New(2)
	for i := 0; i < pending; i++ {
		if _, err := s.Schedule(1+r.Float64(), 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fire one, schedule one: the hold model of a running simulation.
		s.Step(func(ev Event) {
			if _, err := s.Schedule(1+r.Float64(), 0, 0, 0); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkCalendarPending100k(b *testing.B) { benchLargePending(b, 100_000) }
func BenchmarkCalendarPending1M(b *testing.B)   { benchLargePending(b, 1_000_000) }

// TestSortDrainMatchesSort checks sortDrain against a plain (time, seq)
// sort on single-day batches of every shape its paths handle: exponential
// times across the insertion-sort cutoff and well past it, exact time
// ties crowding one bin past 32 entries, times exactly on the day's first
// instant and one ulp below the next day's, and a clamped far-future day.
// Batches arrive in shuffled order, as bucket chains hand them over. On
// the cases meant for the distribution pass, every entry must also carry
// the sub-day bin the pass defines, so a pass that quietly fell back to
// the generic sort fails too.
func TestSortDrainMatchesSort(t *testing.T) {
	const width = 0.37
	const day = 12345
	q0 := newCalendarQueue()
	q0.width, q0.invWidth = width, 1/width
	// first and last are the smallest and largest times in day.
	first := float64(day) * width
	for q0.dayOf(first) >= day {
		first = math.Nextafter(first, math.Inf(-1))
	}
	for q0.dayOf(first) < day {
		first = math.Nextafter(first, math.Inf(1))
	}
	last := float64(day+1) * width
	for q0.dayOf(last) > day {
		last = math.Nextafter(last, math.Inf(-1))
	}
	r := xrand.New(9)
	// inDay maps u in [0, 1) to a time of day.
	inDay := func(u float64) float64 {
		t := first + u*(last-first)
		return min(max(t, first), last)
	}
	exponential := func(n int) []float64 {
		e := make([]float64, n)
		hi := 0.0
		for i := range e {
			e[i] = r.Exponential(1)
			hi = max(hi, e[i])
		}
		for i := range e {
			e[i] = inDay(e[i] / (hi * 1.01))
		}
		return e
	}
	boundaries := func() []float64 {
		var ts []float64
		for i := 0; i < 12; i++ {
			ts = append(ts, first, last)
		}
		for i := 0; i < 20; i++ {
			ts = append(ts, inDay(r.Float64()))
		}
		return ts
	}
	repeat := func(t float64, n int) []float64 {
		ts := make([]float64, n)
		for i := range ts {
			ts[i] = t
		}
		return ts
	}
	far := make([]float64, 40)
	for i := range far {
		far[i] = 1e300 * (1 + r.Float64())
	}
	far[7], far[21] = math.Inf(1), math.Inf(1)
	cases := []struct {
		name  string
		day   int64
		width float64
		times []float64
		pass  bool // ordered by the distribution pass, not a fallback
	}{
		{"exponential/1", day, width, exponential(1), false},
		{"exponential/16", day, width, exponential(16), false},
		{"exponential/17", day, width, exponential(17), true},
		{"exponential/33", day, width, exponential(33), true},
		{"exponential/1000", day, width, exponential(1000), true},
		{"ties-over-32", day, width, repeat(inDay(0.5), 40), false},
		{"day-boundaries", day, width, boundaries(), true},
		{"clamped-day", calMaxDay, 1, far, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := newCalendarQueue()
			q.width, q.invWidth = c.width, 1/c.width
			for i, tm := range c.times {
				if d := q.dayOf(tm); d != c.day {
					t.Fatalf("time %v falls in day %d, not %d", tm, d, c.day)
				}
				q.drain = append(q.drain, calEntry{time: tm, seq: uint64(i), slot: int32(i + 1)})
			}
			r.Shuffle(len(q.drain), func(i, j int) { q.drain[i], q.drain[j] = q.drain[j], q.drain[i] })
			want := slices.Clone(q.drain)
			slices.SortFunc(want, func(a, b calEntry) int {
				if a.time != b.time {
					if a.time < b.time {
						return -1
					}
					return 1
				}
				return int(int64(a.seq) - int64(b.seq))
			})
			q.sortDrain(c.day)
			nb := 1
			for nb < len(q.drain) {
				nb *= 2
			}
			for i, e := range q.drain {
				w := want[i]
				if e.time != w.time || e.seq != w.seq || e.slot != w.slot {
					t.Fatalf("entry %d is (t=%v, seq %d, slot %d), want (t=%v, seq %d, slot %d)",
						i, e.time, e.seq, e.slot, w.time, w.seq, w.slot)
				}
				if !c.pass {
					continue
				}
				frac := float64(e.time*q.invWidth) - float64(c.day)
				if b := uint32(math.Floor(frac * float64(nb))); e.bin != b {
					t.Fatalf("entry %d (t=%v) is in bin %d, want %d of %d: the distribution pass did not run",
						i, e.time, e.bin, b, nb)
				}
			}
		})
	}
}

// FuzzCalendarOrder drives the sorting oracle with byte-chosen scripts.
// Each op is two bytes, an opcode and an argument: schedule a burst of
// exponential, coarse-grid-tie, far-outlier or exact-day-boundary delays,
// cancel, step or run until a horizon. Every delivery must be the
// oracle's exact (time, seq) minimum.
//
//	go test -run '^$' -fuzz FuzzCalendarOrder -fuzztime 30s -fuzzminimizetime 2s ./internal/des
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{0, 200, 0, 200, 0, 200, 5, 31, 3, 0, 3, 5, 5, 31, 7, 255})
	f.Add([]byte{1, 63, 1, 63, 4, 9, 5, 3, 1, 40, 6, 64, 5, 31})
	f.Add([]byte{2, 1, 0, 63, 2, 0, 6, 255, 0, 63, 5, 31, 5, 31, 5, 31})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255, 3, 7, 3, 251, 5, 20, 3, 128, 4, 0, 6, 10})
	f.Add([]byte{1, 63, 1, 63, 1, 63, 1, 63, 1, 63, 1, 63, 5, 31})
	f.Add(append(slices.Repeat([]byte{2, 1}, 20), 0, 10, 5, 31))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			return
		}
		o := newOracle(t)
		r := xrand.New(int64(len(script)))
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%7, int(script[i+1])
			now := o.s.Now()
			switch op {
			case 0: // exponential residuals, the simulators' own gaps
				for k := 0; k <= arg%64; k++ {
					o.schedule(now + r.Exponential(1+float64(arg/64)))
				}
			case 1: // coarse grid: heavy (time, seq) ties
				for k := 0; k <= arg%64; k++ {
					o.schedule(now + math.Floor(r.Float64()*8)/2)
				}
			case 2: // a far outlier, or an event at +Inf
				if arg%2 == 0 {
					o.schedule(now + 1e9*(1+r.Float64()))
				} else {
					o.schedule(math.Inf(1))
				}
			case 3: // the first instant of a day and one ulp before it
				q := &o.s.cal
				day := q.dayOf(now) + 1 + int64(arg%4)
				at := float64(day) * q.width
				for k := 0; k <= arg/4%16; k++ {
					for _, tm := range []float64{at, math.Nextafter(at, math.Inf(-1))} {
						if tm >= now {
							o.schedule(tm)
						}
					}
				}
			case 4:
				if len(o.pending) > 0 {
					o.cancel(arg % len(o.pending))
				}
			case 5:
				for k := 0; k <= arg%32; k++ {
					o.step()
				}
			case 6:
				o.runUntil(now + float64(arg)/32)
			}
		}
		o.drain()
	})
}

// benchExpHold measures the hold model at pending events with Exp(1)
// residuals, or, under churn, with half of the reschedules at mean 15 (a
// lifecycle spell's scale). The wheel sizes its day width from the whole
// pending span, so the head's days hold tens of entries and reach
// sortDrain's distribution pass; the uniform 1+U(0,1) hold of
// BenchmarkCalendarPending* keeps days at about four. The queue is warmed
// for four holds per pending event before timing.
func benchExpHold(b *testing.B, pending int, churn bool) {
	s := NewScheduler()
	r := xrand.New(2)
	delay := func() float64 {
		if churn && r.Float64() < 0.5 {
			return r.Exponential(1.0 / 15)
		}
		return r.Exponential(1)
	}
	for i := 0; i < pending; i++ {
		if _, err := s.Schedule(delay(), 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	hold := func(Event) {
		if _, err := s.Schedule(delay(), 0, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*pending; i++ {
		s.Step(hold)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(hold)
	}
}

func BenchmarkCalendarExpHold25k(b *testing.B)      { benchExpHold(b, 25_000, false) }
func BenchmarkCalendarExpHoldChurn25k(b *testing.B) { benchExpHold(b, 25_000, true) }
