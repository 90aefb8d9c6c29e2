package des_test

import (
	"bytes"
	"runtime"
	"testing"

	"creditp2p/internal/des"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/xrand"
)

// captureFull serializes a scheduler as a standalone snapshot frame.
func captureFull(t *testing.T, s *des.Scheduler) []byte {
	t.Helper()
	w := snapshot.NewWriter(1 << 12)
	s.SaveState(w)
	return w.Finish()
}

// churn applies a random mix of schedules, cancellations and steps,
// keeping a pool of live handles so cancellations target real events.
func churn(t *testing.T, s *des.Scheduler, rng *xrand.RNG, pool *[]des.Handle, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		switch {
		case rng.Float64() < 0.55 || s.Pending() == 0:
			h, err := s.ScheduleAt(s.Now()+rng.Float64()*10, 1, int32(rng.Intn(64)), int64(i))
			if err != nil {
				t.Fatal(err)
			}
			*pool = append(*pool, h)
		case rng.Float64() < 0.5 && len(*pool) > 0:
			k := rng.Intn(len(*pool))
			s.Cancel((*pool)[k])
			(*pool)[k] = (*pool)[len(*pool)-1]
			*pool = (*pool)[:len(*pool)-1]
		default:
			s.Step(func(des.Event) {})
		}
	}
}

// TestSchedulerStateRoundTrip pins the scheduler's state format on the
// calendar queue. A capture taken after a burst of mutations is loaded into
// a scheduler that holds a different, larger state, and the loaded state
// must replace it whole: it serializes to the capture's exact bytes, passes
// the integrity audit, and drains the identical event sequence.
func TestSchedulerStateRoundTrip(t *testing.T) {
	rng := xrand.New(99)
	s := des.NewScheduler()
	var pool []des.Handle
	churn(t, s, rng, &pool, 3000)
	full := captureFull(t, s)

	c := des.NewScheduler()
	var pool2 []des.Handle
	churn(t, c, xrand.New(8), &pool2, 20000) // a far larger slab to replace
	r, err := snapshot.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if err := c.CheckIntegrity(); err != nil {
		t.Fatalf("restored scheduler fails its audit: %v", err)
	}
	if got := captureFull(t, c); !bytes.Equal(got, full) {
		t.Fatalf("restored scheduler serializes to %d bytes, the capture is %d — states diverge",
			len(got), len(full))
	}

	var want, got []des.Event
	s.Drain(func(ev des.Event) { want = append(want, ev) })
	c.Drain(func(ev des.Event) { got = append(got, ev) })
	if len(want) != len(got) {
		t.Fatalf("restored scheduler drains %d events, original %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("drain diverges at event %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestSchedulerLoadRejectsUncoveredSlab pins the decoder's allocation
// bound: a capture may size the slab only by slots it carries. A
// hand-built 91-byte capture declaring a 1<<24-slot slab and no segments
// must be refused without allocating the slab it declares.
func TestSchedulerLoadRejectsUncoveredSlab(t *testing.T) {
	w := snapshot.NewWriter(128)
	w.Section("dsched")
	w.F64(0)       // now
	w.U64(0)       // seq
	w.U64(0)       // fired
	w.U64(0)       // dropped
	w.Int(0)       // live
	w.Int(1 << 24) // slab length
	w.I32s(nil)    // free list
	w.Int(0)       // segments carried
	link := w.Finish()
	if len(link) != 91 {
		t.Fatalf("crafted capture is %d bytes, want 91", len(link))
	}
	r, err := snapshot.Open(link)
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.LoadState(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("capture sizing the slab at 1<<24 uncovered slots loaded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the link allocated %d bytes", grew)
	}
}

// TestSchedulerDeltaRoundTrip pins restoring a later capture of the same
// run on the calendar queue: a base capture is taken, a second burst of
// mutations (the delta since that base) runs, and a second capture is
// taken. A scheduler restored from the base and then from the second
// capture — the path of a run resumed from its newest checkpoint after an
// older one — must serialize to the second capture's exact bytes, pass the
// integrity audit, and drain the identical event sequence.
func TestSchedulerDeltaRoundTrip(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		rng := xrand.New(99)
		s := des.NewScheduler()
		var pool []des.Handle
		churn(t, s, rng, &pool, 3000)
		base := captureFull(t, s)
		churn(t, s, rng, &pool, 800)
		full := captureFull(t, s)

		c := des.NewScheduler()
		for _, capture := range [][]byte{base, full} {
			r, err := snapshot.Open(capture)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.LoadState(r); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if got := captureFull(t, c); !bytes.Equal(got, capture) {
				t.Fatalf("restored scheduler serializes to %d bytes, the capture is %d — states diverge",
					len(got), len(capture))
			}
		}

		if err := c.CheckIntegrity(); err != nil {
			t.Fatalf("restored scheduler fails its audit: %v", err)
		}
		var want, got []des.Event
		s.Drain(func(ev des.Event) { want = append(want, ev) })
		c.Drain(func(ev des.Event) { got = append(got, ev) })
		if len(want) != len(got) {
			t.Fatalf("restored scheduler drains %d events, original %d", len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("drain diverges at event %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	})
}

// withSlabLen re-encodes a SaveState capture with its declared slab
// length l replaced by resize(l), every other field and segment kept as
// captured.
func withSlabLen(t *testing.T, capture []byte, resize func(l int) int) []byte {
	t.Helper()
	r, err := snapshot.Open(capture)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter(len(capture))
	r.Section("dsched")
	w.Section("dsched")
	w.F64(r.F64()) // now
	w.U64(r.U64()) // seq
	w.U64(r.U64()) // fired
	w.U64(r.U64()) // dropped
	w.Int(r.Int()) // live
	w.Int(resize(r.Int()))
	w.I32s(r.I32s(0)) // free list
	segs := r.Int()
	w.Int(segs)
	for k := 0; k < segs; k++ {
		w.U32(r.U32())
		w.F64s(r.F64s(0))
		w.I64s(r.I64s(0))
		w.I32s(r.I32s(0))
		w.U32s(r.U32s(0))
		w.U16s(r.U16s(0))
		w.U8s(r.U8s(0))
		w.U64s(r.U64s(0))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Finish()
}

// TestSchedulerDeltaRejectsShrunkSlab pins LoadState's refusal of a
// capture whose declared slab is shorter than the slots it carries, loaded
// onto a scheduler holding a far larger slab: a shrunk slab must error,
// not silently truncate the carried slots or keep the receiver's. The
// re-encoded capture with its true slab length must load, so the refusals
// come from the shrink alone.
func TestSchedulerDeltaRejectsShrunkSlab(t *testing.T) {
	rng := xrand.New(7)
	s := des.NewScheduler()
	var pool []des.Handle
	churn(t, s, rng, &pool, 2000)
	capture := captureFull(t, s)

	load := func(capture []byte) error {
		grown := des.NewScheduler()
		var pool2 []des.Handle
		churn(t, grown, xrand.New(8), &pool2, 20000) // far larger slab
		r, err := snapshot.Open(capture)
		if err != nil {
			return err
		}
		return grown.LoadState(r)
	}
	if err := load(withSlabLen(t, capture, func(l int) int { return l })); err != nil {
		t.Fatalf("re-encoded capture with its own slab length refused: %v", err)
	}
	for _, shrink := range []struct {
		name   string
		resize func(l int) int
	}{
		{"one slot", func(l int) int { return l - 1 }},
		{"one segment", func(l int) int { return l - 512 }},
		{"to empty", func(int) int { return 0 }},
	} {
		if err := load(withSlabLen(t, capture, shrink.resize)); err == nil {
			t.Errorf("capture loaded with its slab shrunk by %s", shrink.name)
		}
	}
}
