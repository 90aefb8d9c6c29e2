package shard_test

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
)

// TestBarrierSteadyStateZeroAlloc pins the barrier pipeline's recycling
// contract: once the run has warmed past its growth phase (outboxes,
// merge scratch, lifecycle runs and metric series all at their high-water
// capacity), a full window — dispatch, k-way merge, canonical apply,
// churn replay, sampling — allocates nothing. P=1 keeps the measurement
// exact: the lane runs inline on the measuring goroutine, so every
// allocation in the pipeline is attributed.
func TestBarrierSteadyStateZeroAlloc(t *testing.T) {
	cfg := marketConfig(t, 1, taxPipeline(t))
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// Warm through the growth phase, past a trim boundary, leaving windows
	// for the measurement below.
	for i := 0; i < 90; i++ {
		if !e.StepWindow() {
			t.Fatalf("horizon exhausted during warmup at window %d", i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !e.StepWindow() {
			t.Fatal("horizon exhausted during measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state StepWindow allocates %v per window, want 0", allocs)
	}
	ti := e.Timings()
	if ti.MergedEvents == 0 {
		t.Fatal("policy run merged no events; the measurement missed the merge path")
	}
}

// TestChurnedSteadyStateZeroAlloc pins the recycling contract across a
// trim boundary on a churned run whose lanes buffer well over 64 lifecycle
// deltas per window: the trim must keep buffers at their high-water
// capacity instead of shrinking them for the next windows to regrow.
// Allocations are counted over the whole span (windows 41–80, trim at 64)
// with runtime.MemStats: testing.AllocsPerRun divides by the run count
// and truncates, which hides a few allocations spread over many windows.
// MemStats counts the whole process, so the span runs with the collector
// off after one forced collection: the runtime's own allocations around a
// collection that lands inside the span would otherwise be counted too.
func TestChurnedSteadyStateZeroAlloc(t *testing.T) {
	w, err := market.NewShard(market.ShardConfig{Mu: 2.0, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := shard.New(shard.Config{
		Graph:         testGraph(t, 6000, 42),
		Shards:        1,
		Horizon:       40,
		Window:        0.5,
		Seed:          7,
		InitialWealth: 30,
		Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
		Workload:      w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if !e.StepWindow() {
			t.Fatalf("horizon exhausted during warmup at window %d", i)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e.StepWindow() {
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("churned windows 41-80 allocate %d times, want 0", n)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if perWindow := res.Joins / 80; perWindow <= 64 {
		t.Fatalf("%d rejoins per window; the lifecycle buffers stay below the trim floor", perWindow)
	}
}

// TestTimingsCPULines pins the -timing table's two CPU lines: dispatch
// CPU per dispatched event, then apply CPU per merged event, each
// from the accumulated totals.
func TestTimingsCPULines(t *testing.T) {
	ti := shard.Timings{
		Windows:      4,
		Events:       1000,
		MergedEvents: 4000,
		Dispatch:     time.Second,
		DispatchCPU:  1500 * time.Millisecond,
		Apply:        time.Millisecond,
		ApplyCPU:     2 * time.Millisecond,
	}
	var out strings.Builder
	if err := ti.Write(&out); err != nil {
		t.Fatal(err)
	}
	want := "dispatch cpu 1.500s  cpu/wall 1.50  1500000.0 cpu-ns/event over 1000 events\n" +
		"apply cpu    0.002s  500.0 cpu-ns/merged-event over 4000 merged events\n"
	if !strings.Contains(out.String(), want) {
		t.Fatalf("timing table lacks the CPU lines %q:\n%s", want, out.String())
	}
	// The parallel no-policy apply merges nothing: no per-event cost.
	ti.MergedEvents = 0
	out.Reset()
	if err := ti.Write(&out); err != nil {
		t.Fatal(err)
	}
	if want := "apply cpu    0.002s  0.0 cpu-ns/merged-event over 0 merged events\n"; !strings.Contains(out.String(), want) {
		t.Fatalf("timing table lacks %q:\n%s", want, out.String())
	}
}

// TestTimingsBreakdown smoke-tests the phase accounting on both barrier
// paths: windows are counted, dispatch time accumulates, credit effects
// are counted as merged exactly when policies run, the lifecycle merge of
// these churned runs is timed on both paths, the phase sum equals Total,
// every dispatched event is counted, and dispatch CPU time accrues where
// getrusage exists.
func TestTimingsBreakdown(t *testing.T) {
	run := func(pols bool) shard.Timings {
		var cfg shard.Config
		if pols {
			cfg = marketConfig(t, 2, taxPipeline(t))
		} else {
			cfg = marketConfig(t, 2, nil)
		}
		e, err := shard.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for e.StepWindow() {
		}
		res, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		ti := e.Timings()
		if ti.Events != res.Events {
			t.Fatalf("timings count %d dispatched events, result %d", ti.Events, res.Events)
		}
		if runtime.GOOS == "linux" && ti.DispatchCPU <= 0 {
			t.Fatalf("dispatch CPU time not measured: %+v", ti)
		}
		if runtime.GOOS == "linux" && pols && ti.ApplyCPU <= 0 {
			t.Fatalf("apply CPU time not measured on the policy path: %+v", ti)
		}
		var out strings.Builder
		if err := ti.Write(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "cpu-ns/event") && runtime.GOOS == "linux" {
			t.Fatalf("timing table lacks the dispatch CPU line:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "cpu-ns/merged-event") && runtime.GOOS == "linux" {
			t.Fatalf("timing table lacks the apply CPU line:\n%s", out.String())
		}
		return ti
	}

	withPol := run(true)
	if withPol.Windows == 0 || withPol.Dispatch == 0 {
		t.Fatalf("policy run recorded no work: %+v", withPol)
	}
	if withPol.MergedEvents == 0 {
		t.Fatalf("policy run merged no events: %+v", withPol)
	}
	if got := withPol.Dispatch + withPol.Merge + withPol.Apply + withPol.Churn + withPol.Publish; got != withPol.Total() {
		t.Fatalf("Total() = %v, phase sum = %v", withPol.Total(), got)
	}

	noPol := run(false)
	if noPol.MergedEvents != 0 {
		t.Fatalf("no-policy run took the merge path: %+v", noPol)
	}
	if withPol.Merge == 0 || noPol.Merge == 0 {
		t.Fatalf("lifecycle merge not timed: with policies %v, without %v", withPol.Merge, noPol.Merge)
	}
	if noPol.Windows == 0 || noPol.Dispatch == 0 {
		t.Fatalf("no-policy run recorded no work: %+v", noPol)
	}
}
