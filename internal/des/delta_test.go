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

// captureDelta serializes a scheduler's dirty-segment delta.
func captureDelta(t *testing.T, s *des.Scheduler) []byte {
	t.Helper()
	w := snapshot.NewWriter(1 << 12)
	s.SaveDelta(w)
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

// TestSchedulerDeltaRoundTrip pins the scheduler's delta format on the
// calendar queue: after a base capture and a second burst of mutations, a
// clone built from base + delta + RebuildQueue must serialize to the
// exact bytes of a full snapshot taken at the same point, pass the
// integrity audit, and drain the identical event sequence.
func TestSchedulerDeltaRoundTrip(t *testing.T) {
	t.Run("calendar", func(t *testing.T) {
		rng := xrand.New(99)
		s := des.NewScheduler()
		var pool []des.Handle
		churn(t, s, rng, &pool, 3000)
		base := captureFull(t, s) // clears the dirty map: deltas start here
		churn(t, s, rng, &pool, 800)
		delta := captureDelta(t, s)
		full := captureFull(t, s) // reference bytes at the same point

		c := des.NewScheduler()
		r, err := snapshot.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.LoadState(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r, err = snapshot.Open(delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyDelta(r); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		c.RebuildQueue()

		if err := c.CheckIntegrity(); err != nil {
			t.Fatalf("restored scheduler fails its audit: %v", err)
		}
		if got := captureFull(t, c); !bytes.Equal(got, full) {
			t.Fatalf("base+delta restore serializes to %d bytes, full snapshot to %d — states diverge",
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
	})
}

// TestSchedulerDeltaRejectsShrunkSlab pins ApplyDelta's refusal to apply
// a delta whose slab is older (smaller) than the scheduler's — applying
// links out of order must error, not silently truncate.
func TestSchedulerDeltaRejectsShrunkSlab(t *testing.T) {
	rng := xrand.New(7)
	s := des.NewScheduler()
	var pool []des.Handle
	churn(t, s, rng, &pool, 200)
	captureFull(t, s)
	delta := captureDelta(t, s) // delta at 200 ops

	grown := des.NewScheduler()
	var pool2 []des.Handle
	rng2 := xrand.New(8)
	churn(t, grown, rng2, &pool2, 2000) // far larger slab
	r, err := snapshot.Open(delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.ApplyDelta(r); err == nil {
		t.Fatal("delta with a shrunken slab applied without error")
	}
}

// TestSchedulerDeltaRejectsUncoveredGrowth pins the decoder's allocation
// bound: a link may grow the slab only by slots it carries. A hand-built
// 91-byte link declaring a 1<<24-slot slab and no segments must be
// refused without allocating the slab it declares.
func TestSchedulerDeltaRejectsUncoveredGrowth(t *testing.T) {
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
		t.Fatalf("crafted link is %d bytes, want 91", len(link))
	}
	r, err := snapshot.Open(link)
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.ApplyDelta(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("link growing the slab by 1<<24 uncovered slots applied without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing the link allocated %d bytes", grew)
	}
}
