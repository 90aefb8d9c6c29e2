package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. value is the median of n samples (or a
// percentile, where the name says so); q1 and q3 are their quartiles.
type metric struct {
	name, unit string
	value      float64
	q1, q3     float64
	n          int
}

// single is a metric measured once.
func single(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v, q1: v, q3: v, n: 1}
}

// sampled is the median of xs with its quartiles.
func sampled(name, unit string, xs []float64) metric {
	return percentile(name, unit, xs, 0.5)
}

// percentile reports the p-th percentile (nearest rank) of xs, with the
// quartiles of xs.
func percentile(name, unit string, xs []float64, p float64) metric {
	if len(xs) == 0 {
		return single(name, unit, 0)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := metric{name: name, unit: unit, n: len(s)}
	if p == 0.5 {
		m.value = median(s)
	} else {
		m.value = s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
	}
	m.q1, m.q3 = quartiles(s)
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of the sorted sample s
// by the exclusive method, the default of Python's statistics.quantiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func each(rs []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func eventsPerS(r *rep) float64 { return float64(r.res.Events) / r.loopS }

func runCPU(r *rep) float64 { return r.runCPU }

// endToEnd derives the gated metrics from the untraced repetitions. Times
// are CPU times: on a shared virtualized host the wall times of one job
// swing by 2x with steal time, which CPU time leaves out.
func endToEnd(m *measurement) []metric {
	return []metric{
		sampled("run_cpu_s", "s", each(m.untraced, runCPU)),
		sampled("setup_s", "s", each(m.untraced, func(r *rep) float64 { return r.setupCPU })),
		sampled("events_per_cpu_s", "events/cpu-s", each(m.untraced, func(r *rep) float64 {
			return float64(r.res.Events) / r.loopCPU
		})),
		single("peak_rss_mb", "MB", m.peakMB),
	}
}

// perLayer derives the layer metrics from the last traced repetition, the
// medians of the untraced ones, and the ladder.
func perLayer(m *measurement, ladder []metric) []metric {
	t := m.traced[len(m.traced)-1]
	tr, tm, loop := t.trace, t.timings, t.loopS
	const run = 1 // span ID of the traced repetition's root
	share := func(d time.Duration) float64 { return d.Seconds() / loop }
	serial := tm.Merge + tm.Churn + tm.Publish
	if t.serialApply {
		serial += tm.Apply
	}
	var windowsMS []float64
	for _, s := range tr.seconds("StepWindow", run) {
		windowsMS = append(windowsMS, s*1e3)
	}
	c := t.res.Counters
	counter := func(num, den string) float64 { return ratio(float64(c[num]), float64(c[den])) }
	restore := median(t.restoreS)
	ms := []metric{
		sampled("run_s", "s", each(m.untraced, func(r *rep) float64 { return r.runS })),
		sampled("events_per_s", "events/s", each(m.untraced, eventsPerS)),
		single("topology.build_s", "s", sum(tr.seconds("ScaleFree", run))),
		single("topology.lane_degree_imbalance", "ratio", t.imbalance),
		single("topology.cross_edge_frac", "fraction", t.crossFrac),
		single("shard.new_s", "s", sum(tr.seconds("NewSim", run))),
		single("shard.start_s", "s", sum(tr.seconds("Start", run))),
		percentile("shard.window_ms_p50", "ms", windowsMS, 0.5),
		percentile("shard.window_ms_p90", "ms", windowsMS, 0.9),
		single("shard.dispatch_s", "s", tm.Dispatch.Seconds()),
		single("shard.apply_s", "s", tm.Apply.Seconds()),
		single("shard.churn_s", "s", tm.Churn.Seconds()),
		single("shard.merge_frac", "fraction", share(tm.Merge)),
		single("shard.publish_frac", "fraction", share(tm.Publish)),
		single("shard.serial_frac", "fraction", share(serial)),
		sampled("shard.events_per_s_1lane", "events/s", each(m.oneLane, eventsPerS)),
		single("shard.speedup_2v1", "ratio", ratio(
			median(each(m.untraced, eventsPerS)), median(each(m.oneLane, eventsPerS)))),
		single("shard.windows", "count", float64(t.stats.Windows)),
		single("shard.merged_events", "count", float64(tm.MergedEvents)),
		single("shard.merged_per_event", "ratio", ratio(float64(tm.MergedEvents), float64(t.res.Events))),
		single("shard.cross_transfer_frac", "fraction", ratio(float64(t.stats.CrossTransfers), float64(t.stats.Transfers))),
		single("shard.finish_ms", "ms", 1e3*sum(tr.seconds("Finish", run))),
		single("shard.ckpt_stall_frac", "fraction", sum(tr.seconds("Checkpoint", run))/loop),
		single("shard.ckpt_wait_frac", "fraction", share(tm.CkptWait)),
		single("shard.ckpt_copy_frac", "fraction", share(tm.CkptCopy)),
		single("shard.ckpt_encode_frac", "fraction", share(tm.CkptEncode)),
		single("shard.ckpt_write_frac", "fraction", share(tm.CkptWrite)),
	}
	ms = append(ms, ladder...)
	validate := 0.0
	for _, s := range tr.spans {
		if s.Span == "ValidateChain" {
			validate = float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	ms = append(ms,
		single("snapshot.restore_frac", "fraction", ratio(restore, t.runS)),
		single("snapshot.validate_frac", "fraction", ratio(validate, restore)),
		single("snapshot.base_bytes", "bytes", ratio(float64(t.ckpt.BaseBytes), float64(t.ckpt.Bases))),
		single("snapshot.delta_bytes_mean", "bytes", ratio(float64(t.ckpt.DeltaBytes), float64(t.ckpt.Deltas))),
		single("snapshot.bases", "count", float64(t.ckpt.Bases)),
		single("snapshot.deltas", "count", float64(t.ckpt.Deltas)),
		single("market.purchase_frac", "fraction", counter("purchases", "attempts")),
		single("market.fail_insolvent_frac", "fraction", counter("fail_insolvent", "attempts")),
		single("market.fail_offline_frac", "fraction", counter("fail_offline", "attempts")),
		single("streaming.traded_frac", "fraction", counter("chunks_traded", "chunk_requests")),
		single("streaming.stalled_frac", "fraction", counter("chunks_stalled", "chunk_requests")),
		single("sim.events", "count", float64(t.res.Events)),
		single("trace_overhead_frac", "fraction", ratio(median(each(m.traced, runCPU)), median(each(m.untraced, runCPU)))-1),
	)
	return ms
}

// peakRSSMB is the resident-set high-water mark (VmHWM) in MB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

// writeTable prints one line per metric: workload, name, value, unit, the
// quartiles and the sample count.
func writeTable(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-24s %-32s %14.6g %-9s q1=%-12.6g q3=%-12.6g n=%d\n",
			workload, m.name, m.value, m.unit, m.q1, m.q3, m.n)
	}
}

// result is the final machine-readable line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, v *verifier, ms []metric) error {
	res := result{
		Correct:   v.failed == 0,
		Attempted: v.attempted,
		Failed:    v.failed,
		Metrics:   make(map[string]resultValue, len(ms)),
	}
	for _, m := range ms {
		res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
