package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// span is one traced call, written as a JSON line. IDs are 1-based within a
// run; Parent 0 marks a root.
type span struct {
	Run      int    `json:"run"`
	Workload string `json:"workload"`
	Span     string `json:"span"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps one repetition's spans in memory. A nil tracer records
// nothing, so untraced repetitions run the same code.
type tracer struct {
	run      int
	workload string
	base     time.Time
	spans    []span
}

func newTracer(run int, workload string, base time.Time) *tracer {
	// Pre-sized so that appending a span inside the window loop never
	// grows the slice.
	return &tracer{run: run, workload: workload, base: base, spans: make([]span, 0, 4096)}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Run: t.run, Workload: t.workload, Span: name,
		ID: len(t.spans) + 1, Parent: parent,
		StartNS: time.Since(t.base).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.base).Nanoseconds()
}

// seconds returns the durations of the spans with the given name whose
// parent is root.
func (t *tracer) seconds(name string, root int) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Span == name && s.Parent == root {
			d = append(d, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return d
}

func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// verifier counts correctness checks; every failure is reported to out.
type verifier struct {
	out               io.Writer
	attempted, failed int
}

func (v *verifier) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		fmt.Fprintf(v.out, "benchrun: verification failed: "+format+"\n", args...)
	}
}

// rep is one closed job: seed, overlay, engine, windows, verified Result.
type rep struct {
	graph *topology.Graph
	res   *shard.Result
	fp    uint64
	// runS is seed to verified Result; setupS the overlay build plus
	// NewSim and Start; loopS the window loop, checkpoints included. The
	// CPU fields are the process's CPU time over the same intervals.
	runS, setupS, loopS       float64
	runCPU, setupCPU, loopCPU float64
	restoreS                  []float64
	timings                   shard.Timings
	stats                     shard.Stats
	ckpt                      shard.CheckpointStats
	serialApply               bool
	// Set on traced repetitions only.
	trace                *tracer
	imbalance, crossFrac float64
}

// stamp is a point on two clocks: wall time, and the CPU time of every
// thread of the process, user plus system. On a virtualized host the guest
// kernel leaves out of CPU time the time the hypervisor gave the vCPU to
// someone else (steal time), which wall time includes.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return stamp{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// to returns the wall and CPU seconds from s to e.
func (s stamp) to(e stamp) (wall, cpu float64) {
	return e.wall.Sub(s.wall).Seconds(), (e.cpu - s.cpu).Seconds()
}

// memSink is the checkpoint sink: it keeps the current chain in memory,
// copying each sealed link because the checkpointer recycles its buffer,
// and reuses the buffers of links a new base supersedes.
type memSink struct {
	chain, free [][]byte
}

func (m *memSink) WriteBase(data []byte) error {
	m.free = append(m.free, m.chain...)
	m.chain = m.chain[:0]
	return m.WriteDelta(0, data)
}

func (m *memSink) WriteDelta(_ int, data []byte) error {
	var buf []byte
	if n := len(m.free); n > 0 {
		buf = m.free[n-1][:0]
		m.free = m.free[:n-1]
	}
	m.chain = append(m.chain, append(buf, data...))
	return nil
}

// runRep runs one repetition at the given lane count. With g nil it builds
// the overlay from seed first; the engine is seeded with seed+1. Failed
// checks are counted in v; the error return is for runs that could not
// produce a Result at all.
func runRep(sp *spec, seed int64, lanes int, g *topology.Graph, tr *tracer, v *verifier) (*rep, error) {
	r := &rep{trace: tr}
	root := tr.begin("run", 0)
	s0 := now()
	if g == nil {
		id := tr.begin("ScaleFree", root)
		var err error
		g, err = topology.ScaleFree(overlayConfig(sp.peers), xrand.New(seed))
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: overlay: %w", sp.name, err)
		}
	}
	r.graph = g
	cfg, err := sp.engineConfig(g, lanes, seed+1)
	if err != nil {
		return nil, fmt.Errorf("%s: config: %w", sp.name, err)
	}
	r.serialApply = len(cfg.Policies) > 0
	id := tr.begin("NewSim", root)
	sim, err := shard.NewSim(cfg)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: NewSim: %w", sp.name, err)
	}
	id = tr.begin("Start", root)
	err = sim.Start()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: Start: %w", sp.name, err)
	}
	s1 := now()

	var sink *memSink
	var ck *shard.Checkpointer
	if sp.ckptEvery > 0 {
		sink = &memSink{}
		ck = shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{Delta: true})
	}
	for w := 1; sim.Now() < sp.horizon; w++ {
		id = tr.begin("StepWindow", root)
		sim.StepWindow()
		tr.end(id)
		if ck != nil && w%sp.ckptEvery == 0 {
			id = tr.begin("Checkpoint", root)
			err = ck.Checkpoint()
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: checkpoint after window %d: %w", sp.name, w, err)
			}
		}
	}
	s2 := now()
	if ck != nil {
		id = tr.begin("Close", root)
		err = ck.Close()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		r.ckpt = ck.Stats()
	}
	id = tr.begin("Finish", root)
	res, err := sim.Finish()
	tr.end(id)
	v.check(err == nil, "%s: %d-lane Finish: %v", sp.name, lanes, err)
	if err != nil {
		return nil, fmt.Errorf("%s: Finish: %w", sp.name, err)
	}
	r.res, r.fp = res, res.Fingerprint()
	s3 := now()
	tr.end(root)

	r.runS, r.runCPU = s0.to(s3)
	r.setupS, r.setupCPU = s0.to(s1)
	r.loopS, r.loopCPU = s1.to(s2)
	e := sim.Engine()
	r.timings, r.stats = e.Timings(), e.RunStats()
	if tr != nil {
		r.imbalance, r.crossFrac = laneDegreeImbalance(e.Partition()), e.Partition().CrossFraction()
	}
	if sink != nil {
		if err := r.restore(sp, lanes, sink.chain, seed+1, v); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// restore rebuilds the run from its latest checkpoint chain sp.restores
// times; each restored engine, stepped to the horizon, must finish with
// the uninterrupted run's fingerprint.
func (r *rep) restore(sp *spec, lanes int, chain [][]byte, seed int64, v *verifier) error {
	tr := r.trace
	root := tr.begin("restore", 0)
	defer tr.end(root)
	id := tr.begin("ValidateChain", root)
	err := snapshot.ValidateChain(chain)
	tr.end(id)
	v.check(err == nil, "%s: checkpoint chain of %d links: %v", sp.name, len(chain), err)
	if err != nil {
		return fmt.Errorf("%s: %w", sp.name, err)
	}
	for i := 0; i < sp.restores; i++ {
		cfg, err := sp.engineConfig(r.graph, lanes, seed)
		if err != nil {
			return fmt.Errorf("%s: config: %w", sp.name, err)
		}
		t0 := time.Now()
		id = tr.begin("RestoreChain", root)
		sim, err := shard.RestoreChain(cfg, chain)
		tr.end(id)
		r.restoreS = append(r.restoreS, time.Since(t0).Seconds())
		if err != nil {
			v.check(false, "%s: RestoreChain: %v", sp.name, err)
			return fmt.Errorf("%s: RestoreChain: %w", sp.name, err)
		}
		for sim.StepWindow() {
		}
		id = tr.begin("Finish", root)
		res, err := sim.Finish()
		tr.end(id)
		if err != nil {
			v.check(false, "%s: restored Finish: %v", sp.name, err)
			return fmt.Errorf("%s: restored Finish: %w", sp.name, err)
		}
		got := res.Fingerprint()
		v.check(got == r.fp, "%s: restored run fingerprint %016x, uninterrupted run %016x", sp.name, got, r.fp)
	}
	return nil
}

// laneDegreeImbalance is the largest lane's summed degree over the mean
// lane's: the load skew index-block partitioning leaves on a scale-free
// overlay.
func laneDegreeImbalance(pt *topology.Partition) float64 {
	var total, most float64
	for s := 0; s < pt.Shards(); s++ {
		lo, hi := pt.Range(s)
		sum := 0
		for g := lo; g < hi; g++ {
			sum += pt.Degree(g)
		}
		total += float64(sum)
		most = max(most, float64(sum))
	}
	if total == 0 {
		return 0
	}
	return most * float64(pt.Shards()) / total
}

// measurement is everything one workload run measured.
type measurement struct {
	untraced, traced []*rep // timed 2-lane repetitions
	oneLane          []*rep // 1-lane runs, one per traced repetition
	fp               uint64 // the warm-up repetition's Result fingerprint
	// peakMB is the process's resident-set high-water mark after the
	// warm-up: the peak memory of one job run from a fresh process.
	peakMB float64
}

// minReps is the least number of timed repetitions a run makes, however
// short its time budget.
const minReps = 5

// measure runs one untimed warm-up repetition, then repeats the workload
// while the next repetition still fits in budget, and at least minReps
// times. With traced set, every second repetition records spans and is
// followed by a 1-lane run over the same overlay. Fingerprints must agree
// across repetitions and lane counts, and with golden when it is non-zero.
func measure(sp *spec, seed int64, budget time.Duration, traced bool, golden uint64, v *verifier) (*measurement, error) {
	m := &measurement{}
	base := time.Now()
	// The warm-up grows the heap to the workload's size, which the first
	// repetition in a process would otherwise pay for in page faults, and
	// checks the 2-lane fingerprint against the 1-lane one and the pin.
	w2, err := runRep(sp, seed, lanes, nil, nil, v)
	if err != nil {
		return nil, err
	}
	m.fp, m.peakMB = w2.fp, peakRSSMB()
	if golden != 0 {
		v.check(m.fp == golden, "%s: fingerprint %016x, golden.json pins %016x", sp.name, m.fp, golden)
	}
	if _, err := runOneLane(sp, seed, w2, v); err != nil {
		return nil, err
	}
	var last time.Duration
	for i := 1; i <= minReps || (traced && len(m.traced) == 0) || time.Since(base)+last <= budget; i++ {
		t0 := time.Now()
		var tr *tracer
		if traced && i%2 == 0 {
			tr = newTracer(i, sp.name, base)
		}
		// Repetitions run back to back in one process, as a parameter
		// sweep would, with the previous one's garbage collected. Its
		// memory stays mapped for reuse: returning it to the OS makes
		// every repetition fault in fresh pages, which doubled the
		// run-to-run spread on a virtualized host.
		runtime.GC()
		r2, err := runRep(sp, seed, lanes, nil, tr, v)
		if err != nil {
			return nil, err
		}
		v.check(r2.fp == m.fp, "%s: repetition %d fingerprint %016x, warm-up %016x", sp.name, i, r2.fp, m.fp)
		if tr != nil {
			r1, err := runOneLane(sp, seed, r2, v)
			if err != nil {
				return nil, err
			}
			m.traced = append(m.traced, r2)
			m.oneLane = append(m.oneLane, r1)
		} else {
			m.untraced = append(m.untraced, r2)
		}
		r2.graph = nil
		last = time.Since(t0)
	}
	return m, nil
}

// runOneLane repeats r's job with 1 lane over the same overlay, the
// single-threaded baseline, and checks that it reaches the same Result.
func runOneLane(sp *spec, seed int64, r *rep, v *verifier) (*rep, error) {
	runtime.GC()
	r1, err := runRep(sp, seed, 1, r.graph, nil, v)
	if err != nil {
		return nil, err
	}
	r1.graph = nil
	v.check(r1.fp == r.fp, "%s: 1-lane fingerprint %016x, 2-lane %016x", sp.name, r1.fp, r.fp)
	return r1, nil
}
