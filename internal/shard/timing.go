package shard

import (
	"fmt"
	"io"
	"time"
)

// Timings is the engine's phase-level barrier-pipeline breakdown: wall
// time accumulated per window phase across the whole run, surfaced via
// cmd/experiments -timing so perf work can attribute its wins. The
// breakdown is diagnostic only — it never feeds back into the simulation,
// so results stay deterministic with timing collection permanently on.
//
// Phases per window:
//
//	Dispatch — parallel lane event loops over [t, t+W); DispatchCPU is
//	         the same span in process CPU time
//	Apply    — delivering buffered effects: parallel per-lane inbound
//	         without policies; with them, one coordinator pass that merges
//	         the lanes' canonical runs and lands each effect, income hooks
//	         included, as the merge surfaces it. ApplyCPU is the same span
//	         in process CPU time
//	Merge    — the barrier's merge of the lanes' lifecycle deltas into
//	         canonical order (it runs inside the coordinator's barrier
//	         step and is reported apart from Churn)
//	Churn    — the rest of that step: lifecycle deltas into the epoch
//	         bitmap with policy join/depart hooks, policy epoch hooks,
//	         metric samples
//	Publish  — weight-mirror publish: availability EWMA fold and Fenwick
//	         refresh (availability routing only; zero otherwise)
type Timings struct {
	// Windows counts completed conservative-sync windows.
	Windows uint64
	// MergedEvents counts effects that went through the canonical merge
	// (policy path); the fused merge-and-apply costs Apply/MergedEvents
	// per effect.
	MergedEvents uint64
	// Events counts the events dispatched in the timed windows.
	Events uint64

	Dispatch time.Duration
	Merge    time.Duration
	Apply    time.Duration
	Churn    time.Duration
	Publish  time.Duration

	// DispatchCPU is the process CPU time (all threads, from getrusage)
	// spent across the dispatch phases: with P lanes busy it approaches
	// P × Dispatch, and CPU per event rising with P is the signature of
	// lanes contending for shared cache lines. Zero on platforms without
	// getrusage.
	DispatchCPU time.Duration
	// ApplyCPU is the process CPU time spent across the apply phases,
	// measured the same way. With policies it is the serial canonical
	// pass, so ApplyCPU/MergedEvents is its cost per merged event.
	ApplyCPU time.Duration

	// Checkpoint sub-spans (populated when a Checkpointer is attached).
	// Wait + Copy is the barrier-visible stall: Wait drains the previous
	// link's in-flight write (pipeline backpressure), Copy is the parallel
	// fragment encode at the barrier. Encode (seal + CRC) and Write (sink
	// I/O) run on the writer goroutine, overlapped with simulation — they
	// cost wall time only when the pipeline backs up into Wait.
	Checkpoints uint64
	CkptWait    time.Duration
	CkptCopy    time.Duration
	CkptEncode  time.Duration
	CkptWrite   time.Duration
}

// CheckpointStall is the barrier-visible checkpoint cost.
func (t Timings) CheckpointStall() time.Duration { return t.CkptWait + t.CkptCopy }

// Total sums the phase durations.
func (t Timings) Total() time.Duration {
	return t.Dispatch + t.Merge + t.Apply + t.Churn + t.Publish
}

// Write prints the breakdown as an aligned per-phase table: total wall
// time, share of the phase sum, and mean per window.
func (t Timings) Write(w io.Writer) error {
	total := t.Total()
	if _, err := fmt.Fprintf(w, "barrier-pipeline timing over %d windows (%d merged events)\n",
		t.Windows, t.MergedEvents); err != nil {
		return err
	}
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"dispatch", t.Dispatch},
		{"merge", t.Merge},
		{"apply", t.Apply},
		{"churn", t.Churn},
		{"publish", t.Publish},
	}
	for _, ph := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ph.d) / float64(total)
		}
		per := time.Duration(0)
		if t.Windows > 0 {
			per = ph.d / time.Duration(t.Windows)
		}
		if _, err := fmt.Fprintf(w, "  %-8s %12v  %5.1f%%  %12v/window\n",
			ph.name, ph.d.Round(time.Microsecond), share, per.Round(time.Nanosecond)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  %-8s %12v\n", "total", total.Round(time.Microsecond)); err != nil {
		return err
	}
	if err := t.writeCPU(w); err != nil {
		return err
	}
	if t.Checkpoints == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "checkpoint pipeline over %d checkpoints (stall = wait+copy)\n",
		t.Checkpoints); err != nil {
		return err
	}
	spans := []struct {
		name string
		d    time.Duration
	}{
		{"wait", t.CkptWait},
		{"copy", t.CkptCopy},
		{"encode", t.CkptEncode},
		{"write", t.CkptWrite},
	}
	for _, sp := range spans {
		per := time.Duration(0)
		if t.Checkpoints > 0 {
			per = sp.d / time.Duration(t.Checkpoints)
		}
		if _, err := fmt.Fprintf(w, "  %-8s %12v  %12v/checkpoint\n",
			sp.name, sp.d.Round(time.Microsecond), per.Round(time.Nanosecond)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %-8s %12v  %12v/checkpoint\n", "stall",
		t.CheckpointStall().Round(time.Microsecond),
		(t.CheckpointStall() / time.Duration(t.Checkpoints)).Round(time.Nanosecond))
	return err
}

// writeCPU prints the dispatch phase's CPU time, its ratio to the phase's
// wall time and the CPU time per dispatched event, then the apply CPU time
// and its cost per merged event.
func (t Timings) writeCPU(w io.Writer) error {
	if t.DispatchCPU == 0 {
		_, err := fmt.Fprintf(w, "dispatch and apply cpu: not measured on this platform\n")
		return err
	}
	ratio := 0.0
	if t.Dispatch > 0 {
		ratio = float64(t.DispatchCPU) / float64(t.Dispatch)
	}
	if _, err := fmt.Fprintf(w, "dispatch cpu %.3fs  cpu/wall %.2f  %.1f cpu-ns/event over %d events\n",
		t.DispatchCPU.Seconds(), ratio, perCount(t.DispatchCPU, t.Events), t.Events); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "apply cpu    %.3fs  %.1f cpu-ns/merged-event over %d merged events\n",
		t.ApplyCPU.Seconds(), perCount(t.ApplyCPU, t.MergedEvents), t.MergedEvents)
	return err
}

// perCount is d in nanoseconds per item, 0 when there are none.
func perCount(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// Timings returns the accumulated phase breakdown so far; call after
// Finish for the whole run's totals.
func (e *Engine) Timings() Timings { return e.timings }
