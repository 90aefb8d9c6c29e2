// Package shard is the multi-core simulation kernel: it partitions the
// peer population, the overlay topology and the event calendar into P
// per-shard lanes that advance in lockstep windows under a conservative
// synchronization boundary, so one run uses P cores while staying
// deterministic — and, stronger, shard-count-invariant.
//
// # Execution model
//
// Peers are split into P contiguous index blocks (topology.Partition).
// Each lane owns its block's state — balances, per-peer random streams,
// liveness flags, a des.Scheduler holding only its peers' events — and
// runs the discrete-event loop for one fixed window [t, t+W) with no
// access to any other lane's mutable state. Effects that reach another
// peer (credit payments, always; a peer never mutates a neighbor
// directly) are buffered as des.XEvents in the lane's outboxes (one per
// destination shard, or one in all on the policy path). At the window
// barrier the buffered effects are applied in the canonical (time, source
// peer, intra-instant seq) order, lifecycle deltas are folded into the
// shared epoch-liveness bitmap, policy epochs fire, and metrics sample —
// then every lane proceeds into the next window together. This is classic conservative synchronization with a
// fixed lookahead of W: no lane ever observes an effect "from the
// future" of another lane, because all cross-peer effects materialize
// only at barriers.
//
// # Determinism and shard-count invariance
//
// Two properties are maintained, both pinned by tests:
//
//  1. Same seed, same config, same P → byte-identical results, regardless
//     of goroutine scheduling. Lanes share no mutable state inside a
//     window, and every barrier step is ordered canonically.
//  2. Same seed, same config, *different* P → byte-identical results.
//     Every stochastic decision is drawn from the deciding peer's own
//     xrand.SplitMix64 stream (seeded from the run seed and the peer's
//     global index), every cross-peer read goes through the epoch
//     bitmap (state as of the window start — equally stale for a
//     same-shard neighbor as for a remote one), and every cross-peer
//     write is buffered to the barrier in an order keyed only by
//     peer-local quantities. Nothing observable depends on where the
//     shard boundaries fall, so P is purely a performance knob.
//
// The price of invariance is a bounded staleness semantics: a payment
// lands in the recipient's balance at the next barrier (not
// mid-window), and routing sees liveness as of the window start. Both
// are the standard conservative-parallel-simulation trade and are part
// of this engine's model definition, not an approximation of the
// single-threaded kernel: Shards=1 runs the exact same model through
// the exact same code path and produces the exact same bytes as any
// other shard count.
//
// Cross-shard credit still flows through the policy engine's shared-pot
// policy.Host surface: income hooks run per merged transfer at the
// barrier, epoch hooks at their quantized epoch marks, so tax,
// demurrage, subsidy and injection policies run unchanged.
package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"creditp2p/internal/des"
	"creditp2p/internal/pad"
	"creditp2p/internal/policy"
	"creditp2p/internal/prefetch"
	"creditp2p/internal/stats"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// ErrBadConfig reports an invalid engine configuration.
var ErrBadConfig = errors.New("shard: invalid config")

// DefaultWindows is the window count of a run whose Config.Window is 0:
// W defaults to Horizon/DefaultWindows.
const DefaultWindows = 128

// maxWindows caps a run's barrier count Horizon/Window: New refuses a
// window so small that the run would step more barriers than this.
const maxWindows = 1 << 24

// Event kinds: the engine's two lifecycle kinds and the workload kind.
const (
	// KindDepart is a lifecycle event: the peer goes offline, its balance
	// burns.
	KindDepart uint16 = 1
	// KindRejoin is a lifecycle event: the peer comes back with a fresh
	// endowment.
	KindRejoin uint16 = 2
	// KindUser is the kind of every workload event.
	KindUser uint16 = 16
)

// ChurnConfig is the sharded kernel's peer-lifecycle model: each peer
// alternates between online spells of mean MeanLifespan and offline
// spells of mean MeanDowntime (both exponential, drawn from the peer's
// own stream, so lifecycles are shard-count-invariant). Departure burns
// the peer's balance; rejoining mints a fresh endowment — the same
// open-economy supply dynamics as the single-threaded kernel's churn,
// over a fixed peer-slot population.
type ChurnConfig struct {
	MeanLifespan float64
	MeanDowntime float64

	// RejoinRate, when non-nil, shapes the rejoin process as an
	// inhomogeneous Poisson first-arrival: a departed peer rejoins at
	// absolute-time rate RejoinRate(t) instead of the constant
	// 1/MeanDowntime. Delays are drawn by Lewis–Shedler thinning against
	// RejoinEnvelope from the peer's own stream, so time-varying arrival
	// regimes (flash crowds, diurnal cycles) stay shard-count-invariant.
	RejoinRate func(t float64) float64
	// RejoinEnvelope returns a piecewise-constant majorant of RejoinRate:
	// a rate >= RejoinRate(u) for all u in [t, until). Required with
	// RejoinRate.
	RejoinEnvelope func(t float64) (rate, until float64)
	// RateDigest identifies the shape functions in the snapshot config
	// digest (functions cannot be hashed), so restores refuse a run whose
	// churn shaping differs.
	RateDigest uint64
}

// Enabled reports whether the lifecycle process runs.
func (c ChurnConfig) Enabled() bool { return c.MeanLifespan > 0 && c.MeanDowntime > 0 }

// Workload is the per-lane behavior the engine drives — the sharded
// analogs of the single-threaded kernel's sim.Workload. All hooks run on
// the lane that owns the peer; implementations must confine themselves to
// the peer's own state, the engine's epoch-consistent views, and the
// peer's own random stream.
//
// The kernel owns the bookkeeping every workload would otherwise repeat:
// each peer's one pending workload event (Lane.ScheduleNext records it, a
// departure cancels it, dispatch warms it, checkpoints carry it and
// restores vet it) and the per-lane counters (Lane.Count, summed into
// Result.Counters under CounterNames). What is left is event logic and
// state that replays from each peer's stream prefix at Setup.
type Workload interface {
	// Setup allocates global workload state. It runs single-threaded
	// before any lane starts; per-peer stream draws made here (role
	// assignment) count as part of each peer's deterministic stream
	// prefix. Setup state is rebuilt, never checkpointed.
	Setup(e *Engine) error
	// Arm schedules peer g's first event with Lane.ScheduleNext, at start
	// and after a rejoin.
	Arm(ln *Lane, g int32)
	// OnEvent handles a workload event (Kind KindUser) for ev.Actor; it
	// schedules the actor's next one, if any, with Lane.ScheduleNext.
	OnEvent(ln *Lane, ev des.Event)
	// Digest returns a stable identity of the workload's configuration,
	// folded into the snapshot digest so restores refuse mismatches.
	Digest() uint64
	// CounterNames names the workload's counters, at most MaxCounters:
	// Lane.Count(k) bumps counter k, and Result.Counters reports its sum
	// over the lanes under CounterNames()[k].
	CounterNames() []string
}

// MaxCounters is the most counters a workload may declare.
const MaxCounters = 8

// Config parameterizes a sharded run.
type Config struct {
	// Graph is the overlay; node ids must be dense 0..N-1. The engine
	// snapshots it into a topology.Partition during New and drops its
	// reference, so callers can release the graph to the collector.
	Graph *topology.Graph
	// Shards is the lane count P (>= 1).
	Shards int
	// Window is the conservative-sync window length W; 0 selects
	// Horizon/DefaultWindows. W is a model parameter (it sets
	// effect-visibility granularity), deliberately independent of P.
	Window float64
	// Horizon is the simulated duration.
	Horizon float64
	// Seed derives every stream in the run.
	Seed int64
	// InitialWealth is each peer's starting endowment.
	InitialWealth int64
	// SampleEvery is the metrics cadence, quantized up to barriers;
	// 0 selects Horizon/100, and a cadence below W is raised to W.
	SampleEvery float64
	// Queue selects nothing: every lane runs the calendar queue. It is
	// still folded into the checkpoint config digest, so checkpoints that
	// recorded a value restore only under the same value.
	//
	// Deprecated: leave unset; kept only so existing callers compile.
	Queue des.QueueKind
	// Churn enables the peer lifecycle process.
	Churn ChurnConfig
	// Policies is the economic policy pipeline; hooks run at barriers.
	Policies []policy.Policy
	// PolicyEpoch is the engine epoch period (quantized up to barriers);
	// 0 disables epoch hooks. A positive epoch must be at least W.
	PolicyEpoch float64
	// Routing selects how workloads sample spend destinations.
	Routing RoutingConfig
	// Workload is the lane behavior.
	Workload Workload
}

// Checkpoint segment granularity: a lane section lists its peers in
// segments of peerSegSize, each under its id (the snapshot layout; a
// segment's bal+rng+flags spans total ~8.5 KB). Segments are lane-local
// (anchored at the lane's lo), so they never straddle a partition
// boundary.
const (
	peerSegShift = 9
	peerSegSize  = 1 << peerSegShift
)

// Lane is one shard's execution context: the scheduler over its peers'
// events, the outboxes, the lane-local slices of the metric accumulators,
// and scratch. Workload hooks receive the lane they run on.
//
// Everything a lane writes while the lanes run concurrently is private to
// it down to the 128-byte pad.Block, so two lanes never write one cache
// line (DESIGN.md, "Lane-private cache lines"). The struct embeds its
// scheduler, is padded to whole blocks and is allocated on its own; every
// buffer it owns is sized through the pad package. The layout test walks
// these objects and checks the addresses the allocator handed out.
type Lane struct {
	e *Engine
	// S is the shard index.
	S int
	// lo, hi bound the lane's global peer indices [lo, hi).
	lo, hi int32
	sched  des.Scheduler
	// out buffers this window's credit effects. Without policies out[d]
	// holds those destined for shard d, which lane d applies in parallel;
	// with policies the lane keeps one outbox, out[0], whose canonical run
	// the coordinator merges with the other lanes' runs (applyMerged).
	out []des.MergeBuffer
	// life buffers this window's lifecycle deltas (lifeDelta), merged at
	// the barrier in canonical order.
	life des.MergeBuffer
	// hist is the lane's balance histogram over its live peers: hist[b]
	// live peers hold exactly b credits. Merged across lanes at barriers
	// for the exact global Gini.
	hist stats.BalanceHist
	// liveN / supply track the lane's live-peer count and balance sum.
	liveN  int
	supply int64
	// minted/burned account lifecycle endowments and burns plus
	// lost-in-flight credits applied by this lane.
	minted, burned int64
	// transfers / crossTransfers / lost count applied effects.
	transfers, crossTransfers, lostCount uint64
	lostAmount                           int64
	// counts are the workload's counters (Workload.CounterNames), bumped
	// by Count on every event, inside the lane's own blocks.
	counts [MaxCounters]uint64
	// _ rounds the struct up to whole pad.Blocks (pinned by
	// TestLaneSizeWholeBlocks).
	_ [lanePad]byte
}

// lanePad is the tail padding that makes Lane a whole number of blocks.
const lanePad = 88

// Engine coordinates P lanes through lockstep windows.
type Engine struct {
	cfg  Config
	part *topology.Partition
	n    int
	p    int

	window      float64
	horizon     float64
	sampleEvery float64
	polEpoch    float64

	// Global per-peer state, partitioned by index range: inside a window
	// each slice element is touched only by its owner lane.
	bal   []int64
	rng   []xrand.SplitMix64
	flags []uint8 // bit 0: currently alive (owner-lane view)
	// pend is each peer's pending workload event as a packed des.Handle,
	// 0 when it has none: set by Lane.ScheduleNext, cleared when the event
	// fires or the peer departs.
	pend []uint64

	// aliveEpoch is the shared liveness bitmap as of the window start:
	// written only at barriers, read freely by every lane during the
	// window. All routing-time liveness checks go through it — for local
	// and remote peers alike — which is what makes routing outcomes
	// shard-count-invariant.
	aliveEpoch []uint64

	// rt is the weighted-routing state: the barrier-frozen weight mirror
	// and the per-peer Fenwick slab (see routing.go).
	rt routingState

	lanes []*Lane

	// Coordinator state (barrier-only).
	now        float64
	bNow       float64 // barrier time policy hooks observe as Now()
	running    bool    // policy.Host.Running: started and not finished
	nextSample float64
	nextPol    float64
	pot        int64
	engine     *policy.Engine
	polRNG     *xrand.RNG
	joins      uint64
	departures uint64
	windows    uint64

	gini       *trace.Series
	population *trace.Series
	supply     *trace.Series

	// Barrier scratch, all recycled across windows: steady-state barriers
	// allocate nothing (pinned by TestBarrierSteadyStateZeroAlloc,
	// TestChurnedSteadyStateZeroAlloc and the ShardMarketLargePolicy allocs
	// guard). lifeScratch holds the merged lifecycle deltas; it grows once
	// to its high-water occupancy and is trimmed back every trimEvery
	// windows if a spike left it more than 4x oversized. runScratch and
	// merger serve both merges.
	lifeScratch []des.XEvent
	lifeHW      int
	runScratch  [][]des.XEvent
	histScratch []stats.BalanceHist
	merger      des.Merger
	host        engineHost
	// counterNames are the workload's declared counter names.
	counterNames []string
	// dispatchFn / applyFn are the per-window lane closures, built once:
	// a capture-free closure costs nothing per call, while one capturing
	// the window end would be heap-allocated every window (it escapes into
	// parallel's goroutines). They read the window end from bNow.
	dispatchFn func(ln *Lane)
	applyFn    func(ln *Lane)

	timings Timings

	started  bool
	finished bool
}

// trimEvery is the window cadence of the high-water buffer trim.
const trimEvery = 64

// Per-peer flag bits. aliveBit is the owner-lane liveness view.
// fenBuiltBit marks the peer's Fenwick tree as matching the frozen weight
// mirror (cleared when a light peer's neighbor weight changes; heavy
// peers' trees are patched in place and never go stale). heavyBit marks
// degree above the heavy threshold, precomputed at New. Flag bytes are written only
// by the owner lane in-window and the coordinator at barriers, so the
// bits never race.
const (
	aliveBit    = uint8(1)
	fenBuiltBit = uint8(2)
	heavyBit    = uint8(4)
)

// New validates the configuration and builds an engine. Call Start (or
// Run) to arm the initial events; a freshly built engine is also the
// target of a state restore.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("%w: Shards=%d", ErrBadConfig, cfg.Shards)
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrBadConfig)
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("%w: Horizon=%v", ErrBadConfig, cfg.Horizon)
	}
	if cfg.InitialWealth < 0 || cfg.InitialWealth > stats.MaxCreditStep {
		return nil, fmt.Errorf("%w: InitialWealth=%d outside [0, %d]", ErrBadConfig, cfg.InitialWealth, stats.MaxCreditStep)
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadConfig)
	}
	if n := len(cfg.Workload.CounterNames()); n > MaxCounters {
		return nil, fmt.Errorf("%w: workload declares %d counters, at most %d fit a lane", ErrBadConfig, n, MaxCounters)
	}
	if !(cfg.Window >= 0 && cfg.Window <= cfg.Horizon) {
		return nil, fmt.Errorf("%w: Window=%v with Horizon=%v", ErrBadConfig, cfg.Window, cfg.Horizon)
	}
	// The remaining periods may be zero or negative (each selects a
	// default or disables its stream), but NaN or an infinity would size
	// a buffer or schedule a barrier from it.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SampleEvery", cfg.SampleEvery},
		{"PolicyEpoch", cfg.PolicyEpoch},
		{"Churn.MeanLifespan", cfg.Churn.MeanLifespan},
		{"Churn.MeanDowntime", cfg.Churn.MeanDowntime},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("%w: %s=%v", ErrBadConfig, f.name, f.v)
		}
	}
	if (cfg.Churn.MeanLifespan > 0) != (cfg.Churn.MeanDowntime > 0) {
		return nil, fmt.Errorf("%w: churn needs both MeanLifespan and MeanDowntime (got MeanLifespan=%v MeanDowntime=%v)",
			ErrBadConfig, cfg.Churn.MeanLifespan, cfg.Churn.MeanDowntime)
	}
	if cfg.Churn.RejoinRate != nil {
		if cfg.Churn.RejoinEnvelope == nil {
			return nil, fmt.Errorf("%w: Churn.RejoinRate needs Churn.RejoinEnvelope", ErrBadConfig)
		}
		if !cfg.Churn.Enabled() {
			return nil, fmt.Errorf("%w: Churn.RejoinRate needs an enabled lifecycle process", ErrBadConfig)
		}
	}
	if err := validateRouting(&cfg); err != nil {
		return nil, err
	}
	part, err := topology.NewPartition(cfg.Graph, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		part:    part,
		n:       part.N(),
		p:       cfg.Shards,
		window:  cfg.Window,
		horizon: cfg.Horizon,
	}
	// The partition snapshot replaces the graph; drop the engine's
	// reference so a caller-released graph is collectable.
	e.cfg.Graph = nil
	if e.window == 0 {
		e.window = e.horizon / DefaultWindows
	}
	// A window far below the horizon is finite but never finishes: the
	// barrier count must stay countable.
	if e.horizon/e.window > maxWindows {
		return nil, fmt.Errorf("%w: Window=%v makes %v barriers over Horizon=%v, more than %d", ErrBadConfig, e.window, e.horizon/e.window, e.horizon, maxWindows)
	}
	if cfg.PolicyEpoch > 0 && cfg.PolicyEpoch < e.window {
		// Epochs fire at barriers: a shorter epoch would fire several times
		// per barrier, and a tiny one would keep the first barrier spinning.
		return nil, fmt.Errorf("%w: PolicyEpoch=%v is shorter than the window %v", ErrBadConfig, cfg.PolicyEpoch, e.window)
	}
	e.sampleEvery = cfg.SampleEvery
	if e.sampleEvery <= 0 {
		e.sampleEvery = e.horizon / 100
	}
	// Samples land on barriers, at most one per barrier, so a cadence
	// below W samples every barrier exactly as a cadence of W does; it is
	// raised to W. A tiny cadence would otherwise size the metric series
	// from Horizon/SampleEvery and advance the next-sample clock past each
	// barrier one cadence at a time.
	if e.sampleEvery < e.window {
		e.sampleEvery = e.window
	}
	e.polEpoch = cfg.PolicyEpoch
	e.counterNames = cfg.Workload.CounterNames()
	if len(cfg.Policies) > 0 {
		e.engine = policy.NewEngine(cfg.Policies...)
	}

	e.bal = make([]int64, e.n)
	e.rng = make([]xrand.SplitMix64, e.n)
	e.flags = make([]uint8, e.n)
	e.pend = make([]uint64, e.n)
	e.aliveEpoch = make([]uint64, (e.n+63)/64)
	for i := 0; i < e.n; i++ {
		e.rng[i] = xrand.NewSplitMix64(cfg.Seed, int64(i))
		e.bal[i] = cfg.InitialWealth
		e.flags[i] = aliveBit
		e.aliveEpoch[i>>6] |= 1 << (uint(i) & 63)
	}
	e.lanes = make([]*Lane, e.p)
	outs := e.p // one outbox per destination shard, or one in all
	if e.engine != nil {
		outs = 1
	}
	for s := 0; s < e.p; s++ {
		lo, hi := part.Range(s)
		ln := &Lane{
			e:     e,
			S:     s,
			lo:    lo,
			hi:    hi,
			out:   pad.Make[des.MergeBuffer](outs),
			liveN: int(hi - lo),
		}
		ln.sched.Init()
		ln.sched.Reserve(laneSlots(int(hi-lo), cfg.Churn.Enabled()))
		ln.supply = int64(hi-lo) * cfg.InitialWealth
		ln.minted = ln.supply
		ln.hist.Grow(cfg.InitialWealth)
		ln.hist[cfg.InitialWealth] = int64(hi - lo)
		e.lanes[s] = ln
	}
	e.polRNG = xrand.New(cfg.Seed ^ 0x5ca1ab1e)
	e.host.e = e
	e.initRouting()
	e.dispatchFn = func(ln *Lane) {
		for d := range ln.out {
			ln.out[d].Reset()
		}
		ln.life.Reset()
		ln.sched.RunUntil(ln.e.bNow, ln.dispatch)
	}
	e.applyFn = func(ln *Lane) { ln.applyInbound() }
	// Pre-size the metric series to the whole run's sample count so
	// barrier-time samples never grow a backing array. The cadence is at
	// least W, so the count is at most the barrier count; maxPresized caps
	// it for a window so small that its barrier count overflows an
	// allocation.
	n := int(math.Min(e.horizon/e.sampleEvery, maxPresized)) + 3
	e.gini = presizedSeries("gini", n)
	e.population = presizedSeries("population", n)
	e.supply = presizedSeries("supply", n)
	e.nextSample = 0
	e.nextPol = e.polEpoch
	if err := cfg.Workload.Setup(e); err != nil {
		return nil, err
	}
	return e, nil
}

// laneSlots is the event capacity New reserves for a lane of the given
// population, so arming the peers at Start, running and restoring never
// regrow the lane's event storage. Each peer holds at most one pending
// workload event and, under churn, one lifecycle event. A departure
// cancels the peer's workload event, which keeps its slot until it
// surfaces at the queue head; if the peer rejoins first, its new workload
// event takes another slot, so churn adds an eighth of the population for
// those. A lane that outgrows the reservation still grows by append.
func laneSlots(peers int, churn bool) int {
	if !churn {
		return peers
	}
	return 2*peers + peers/8
}

// maxPresized caps the points New presizes a metric series for; a run
// that records more grows the series at its barriers.
const maxPresized = 1 << 20

// presizedSeries builds a series with capacity for n points.
func presizedSeries(name string, n int) *trace.Series {
	s := trace.NewSeries(name)
	s.Times = make([]float64, 0, n)
	s.Values = make([]float64, 0, n)
	return s
}

// Start arms every peer's initial events and records the t=0 sample.
func (e *Engine) Start() error {
	if e.started {
		return errors.New("shard: already started")
	}
	e.started = true
	// The initial population joins with Running() false, mirroring the
	// single-threaded kernels' OnJoin contract.
	if e.engine != nil {
		for g := int32(0); g < int32(e.n); g++ {
			e.engine.Joined(&e.host, g)
		}
	}
	e.running = true
	// Arming is deterministic per lane (ascending index); lifecycle draws
	// precede workload draws so each peer's stream prefix is fixed.
	for _, ln := range e.lanes {
		for g := ln.lo; g < ln.hi; g++ {
			if e.cfg.Churn.Enabled() {
				ln.schedule(e.rng[g].Exponential(1/e.cfg.Churn.MeanLifespan), KindDepart, g, 0)
			}
			e.cfg.Workload.Arm(ln, g)
		}
	}
	e.sample(0)
	e.nextSample = e.sampleEvery
	return nil
}

// StepWindow advances one conservative-sync window: parallel lane
// execution to the next barrier, canonical effect merge, lifecycle and
// policy processing, sampling. It reports false once the horizon is
// reached.
func (e *Engine) StepWindow() bool {
	if !e.started || e.now >= e.horizon {
		return false
	}
	tEnd := e.now + e.window
	if tEnd > e.horizon {
		tEnd = e.horizon
	}
	e.bNow = tEnd
	// Phase 1 (dispatch): every lane drains its events in [now, tEnd] in
	// parallel. Lanes only touch their own partition of the peer state
	// plus the read-only epoch views, so the goroutine schedule cannot
	// influence results.
	ev0, c0 := e.EventsFired(), processCPU()
	t0 := time.Now()
	e.parallel(e.dispatchFn)
	t1, c1 := time.Now(), processCPU()
	e.timings.Dispatch += t1.Sub(t0)
	e.timings.DispatchCPU += c1 - c0
	e.timings.Events += e.EventsFired() - ev0
	// Phase 2 (apply): deliver the window's buffered effects. Without a
	// policy pipeline each lane applies its own inbound buckets in
	// parallel (delivery on disjoint destination partitions commutes, so
	// no canonical order is needed); with policies the income hooks touch
	// global state (pot, any peer), so the coordinator merges the lanes'
	// canonical runs and lands each effect as the merge surfaces it.
	if e.engine == nil {
		e.parallel(e.applyFn)
	} else {
		e.applyMerged()
	}
	t2 := time.Now()
	e.timings.Apply += t2.Sub(t1)
	e.timings.ApplyCPU += processCPU() - c1
	// Phase 3 (churn): coordinator — lifecycle deltas merged into the
	// epoch bitmap (and policy join/depart hooks), weight-mirror publish,
	// epoch hooks, samples. The lifecycle merge and the publish accrue
	// inside barrier; subtract them here so Merge, Churn and Publish
	// partition the phase.
	mp0 := e.timings.Merge + e.timings.Publish
	e.barrier(tEnd)
	e.timings.Churn += time.Since(t2) - (e.timings.Merge + e.timings.Publish - mp0)
	e.now = tEnd
	e.windows++
	e.timings.Windows++
	if e.windows%trimEvery == 0 {
		e.trim()
	}
	return true
}

// trim releases slack capacity from every recycled barrier buffer whose
// backing array a traffic spike left more than 4x oversized relative to
// its recent high-water occupancy. Runs every trimEvery windows; in steady
// state it touches nothing.
func (e *Engine) trim() {
	for _, ln := range e.lanes {
		for d := range ln.out {
			ln.out[d].Trim()
		}
		ln.life.Trim()
	}
	// The merged lifecycle deltas follow the buffers' rule: reallocate at
	// the high-water mark when more than 4x oversized.
	if c := cap(e.lifeScratch); c > 64 && c > 4*e.lifeHW {
		e.lifeScratch = make([]des.XEvent, 0, e.lifeHW)
	}
	e.lifeHW = 0
	// Stale run pointers in runScratch's spare capacity would pin the
	// outbox and lifecycle arrays just trimmed above.
	clear(e.runScratch[:cap(e.runScratch)])
}

// Run executes the whole horizon and finishes.
func Run(cfg Config) (*Result, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	for e.StepWindow() {
	}
	return e.Finish()
}

// parallel runs fn over every lane, on P goroutines when P > 1. The
// WaitGroup gives the coordinator a happens-before edge over all lane
// writes, and lanes one over the coordinator's barrier writes.
func (e *Engine) parallel(fn func(ln *Lane)) {
	if e.p == 1 {
		fn(e.lanes[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.p)
	for _, ln := range e.lanes {
		go func(ln *Lane) {
			defer wg.Done()
			fn(ln)
		}(ln)
	}
	wg.Wait()
}

// warmAhead is dispatch's software-pipelining distance: while handling
// one event, the hot per-peer state of the actor this many events ahead
// is prefetched so its cache misses overlap with the current event's work.
// The actor twice as far ahead gets its CSR row bounds hinted first, so
// that the near stage can read them (to find the row and the sampler
// tree) without stalling.
const warmAhead = 4

// dispatch routes one event: lifecycle kinds to the engine, the rest to
// the workload.
func (ln *Lane) dispatch(ev des.Event) {
	// The calendar's drain batch exposes upcoming actors. The read-ahead
	// runs in two stages: the far stage hints the row bounds of the actor
	// 2*warmAhead events on; the near stage reads the bounds of the actor
	// warmAhead events on, cached by then, and hints its RNG stream,
	// balance, pending handle, the two ends of its neighbor row and its
	// routing sampler's total. These are hints that never affect delivery
	// order or simulation state: prefetches change no memory. They must
	// not rebuild a stale sampler either, because which actors they see
	// depends on the calendar's batches, and checkpoints save whether each
	// tree is built.
	e := ln.e
	if g, ok := ln.sched.UpcomingActor(2 * warmAhead); ok {
		e.part.WarmBounds(g)
	}
	if g, ok := ln.sched.UpcomingActor(warmAhead); ok {
		prefetch.Of(&e.rng[g])
		prefetch.Of(&e.bal[g])
		prefetch.Of(&e.pend[g])
		prefetch.Ends(e.part.Neighbors(g))
		e.warmSampler(g)
	}
	switch ev.Kind {
	case KindDepart:
		ln.depart(ev)
	case KindRejoin:
		ln.rejoin(ev)
	default:
		// The pending event just fired; OnEvent may schedule the next.
		e.pend[ev.Actor] = 0
		e.cfg.Workload.OnEvent(ln, ev)
	}
}

// depart takes a peer offline: burn its balance, cancel its pending
// workload event, schedule the rejoin, and queue the bitmap delta.
func (ln *Lane) depart(ev des.Event) {
	e := ln.e
	g := ev.Actor
	e.flags[g] &^= aliveBit
	b := e.bal[g]
	ln.hist[b]--
	ln.liveN--
	ln.supply -= b
	ln.burned += b
	e.bal[g] = 0
	ln.sched.Cancel(des.UnpackHandle(e.pend[g]))
	e.pend[g] = 0
	if d := ln.rejoinDelay(g, ev.Time); !math.IsInf(d, 1) {
		ln.schedule(d, KindRejoin, g, 0)
	}
	ln.life.Add(lifeDelta(ev.Time, g, KindDepart))
}

// rejoinDelay draws the departed peer's offline spell from its own
// stream. Constant-rate churn is a single exponential; with RejoinRate
// set, the rejoin is the first arrival of an inhomogeneous Poisson
// process, drawn by Lewis–Shedler thinning against the envelope: advance
// through envelope segments with envelope-rate exponentials, accept each
// candidate with probability rate/envelope. Every draw comes from peer
// g's stream, so the spell — and the number of words consumed — is a pure
// function of (stream state, departure time), shard-count-invariant.
// Returns +Inf when the envelope reports no further arrivals (the peer
// never rejoins).
func (ln *Lane) rejoinDelay(g int32, t0 float64) float64 {
	e := ln.e
	c := &e.cfg.Churn
	r := &e.rng[g]
	if c.RejoinRate == nil {
		return r.Exponential(1 / c.MeanDowntime)
	}
	t := t0
	for {
		env, until := c.RejoinEnvelope(t)
		if env <= 0 {
			if until <= t || math.IsInf(until, 1) {
				return math.Inf(1)
			}
			t = until
			continue
		}
		d := r.Exponential(env)
		if t+d > until {
			t = until
			continue
		}
		t += d
		if r.Bernoulli(c.RejoinRate(t) / env) {
			return t - t0
		}
	}
}

// rejoin brings a peer back online with a fresh endowment.
func (ln *Lane) rejoin(ev des.Event) {
	e := ln.e
	g := ev.Actor
	e.flags[g] |= aliveBit
	w := e.cfg.InitialWealth
	e.bal[g] = w
	ln.hist.Add(w)
	ln.liveN++
	ln.supply += w
	ln.minted += w
	ln.schedule(e.rng[g].Exponential(1/e.cfg.Churn.MeanLifespan), KindDepart, g, 0)
	e.cfg.Workload.Arm(ln, g)
	ln.life.Add(lifeDelta(ev.Time, g, KindRejoin))
}

// lifeDelta is peer g's lifecycle delta at time t as a merge event: kind
// is KindDepart or KindRejoin, and Seq orders a departure before a rejoin
// of the same peer at the same instant, so the canonical (Time, Src, Seq)
// merge applies deltas by time, then peer, then departure first.
func lifeDelta(t float64, g int32, kind uint16) des.XEvent {
	seq := uint32(0)
	if kind == KindRejoin {
		seq = 1
	}
	return des.XEvent{Time: t, Src: g, Seq: seq, Kind: kind}
}

// schedule registers an event after delay on this lane; scheduling can
// only fail on NaN/past times, which are construction bugs here.
func (ln *Lane) schedule(delay float64, kind uint16, actor int32, payload int64) des.Handle {
	h, err := ln.sched.Schedule(delay, kind, actor, payload)
	if err != nil {
		panic(fmt.Sprintf("shard: lane %d schedule: %v", ln.S, err))
	}
	return h
}

// ScheduleNext schedules peer g's next workload event, of kind KindUser,
// at absolute time t, and records its handle: a peer has at most one
// pending workload event, which its departure cancels. Call it from Arm,
// or from OnEvent for the event's own actor.
func (ln *Lane) ScheduleNext(t float64, g int32) {
	h, err := ln.sched.ScheduleAt(t, KindUser, g, 0)
	if err != nil {
		panic(fmt.Sprintf("shard: lane %d schedule: %v", ln.S, err))
	}
	ln.e.pend[g] = h.Pack()
}

// Count bumps the lane's workload counter k, an index into
// Workload.CounterNames.
func (ln *Lane) Count(k int) { ln.counts[k]++ }

// Now returns the lane's current virtual time.
func (ln *Lane) Now() float64 { return ln.sched.Now() }

// Spend moves amount credits from the live local peer src toward dst:
// src's balance is debited immediately, and the credit is buffered to
// land in dst's balance at the next barrier (or burn if dst is gone by
// then). seq disambiguates several spends one peer makes at the same
// instant. It reports false — consuming no state — when src cannot
// afford the amount.
func (ln *Lane) Spend(t float64, src, dst int32, seq uint32, amount int64) bool {
	e := ln.e
	if e.bal[src] < amount {
		return false
	}
	pre := e.bal[src]
	e.bal[src] = pre - amount
	ln.hist.Move(pre, pre-amount)
	ln.supply -= amount
	d := e.part.ShardOf(dst)
	out := &ln.out[0]
	if len(ln.out) > 1 {
		out = &ln.out[d]
	}
	out.Add(des.XEvent{
		Time: t, Src: src, Dst: dst, Seq: seq, Amount: amount, Kind: KindUser,
	})
	ln.transfers++
	if d != ln.S {
		ln.crossTransfers++
	}
	return true
}

// applyInbound applies this window's effects destined for this lane, in
// source-bucket order — the no-policy fast path, runnable in parallel
// because every write lands in this lane's partition. No canonical order
// is needed here: without income hooks, delivery is commutative — balance
// credits add, histogram moves compose, and the dead-destination check
// reads alive flags that only change at barriers — so applying the buckets
// in any order produces bit-identical state. The policy path below cannot
// skip the merge, because income hooks observe pre-balances and the pot.
func (ln *Lane) applyInbound() {
	e := ln.e
	for _, src := range e.lanes {
		evs := src.out[ln.S].Events()
		for i := range evs {
			if i+applyAhead < len(evs) {
				prefetch.Of(&e.bal[evs[i+applyAhead].Dst])
			}
			ln.deliver(&evs[i])
		}
	}
}

// deliver lands one merged effect: credit the destination if it is still
// online, otherwise burn the in-flight amount. It reports whether the
// credit landed, and the destination's balance before it did.
func (ln *Lane) deliver(xev *des.XEvent) (pre int64, landed bool) {
	e := ln.e
	g := xev.Dst
	if e.flags[g]&aliveBit == 0 {
		ln.lostCount++
		ln.lostAmount += xev.Amount
		ln.burned += xev.Amount
		return 0, false
	}
	pre = e.bal[g]
	e.bal[g] = pre + xev.Amount
	ln.hist.Move(pre, pre+xev.Amount)
	ln.supply += xev.Amount
	return pre, true
}

// applyAhead is the apply passes' read-ahead distance along each run:
// destination balances are random-access at effect granularity, so at
// large populations each delivery starts with a cache miss, and
// prefetching the balance of the effect this many places further down the
// same run overlaps those misses with the deliveries in between. Both
// applyInbound (along each source bucket) and applyMerged (along each
// lane run, through the merger's Ahead) use it. The one-byte flags the
// dead-destination check reads are not hinted: the flag array is a
// sixteenth of the balances' size and stays cached.
const applyAhead = 8

// applyMerged is the policy path's fused merge and apply: it merges the
// lanes' outbox runs in canonical (time, src, seq) order and lands each
// effect, income hooks included, as the merge surfaces it, so the hooks
// (which may touch the pot and any peer) observe the same sequence at
// every shard count. Each run is already canonical (des.MergeBuffer.Add
// keeps it so), and the loser tree compares and hands out the effects
// where the lanes wrote them. Along each run the destination balance of
// the effect applyAhead places on is prefetched.
func (e *Engine) applyMerged() {
	runs := e.runScratch[:0]
	n := 0
	for _, ln := range e.lanes {
		evs := ln.out[0].Events()
		runs = append(runs, evs)
		n += len(evs)
	}
	e.runScratch = runs
	e.timings.MergedEvents += uint64(n)
	m := &e.merger
	m.Init(runs)
	for x := m.Next(); x != nil; x = m.Next() {
		if y := m.Ahead(applyAhead); y != nil {
			prefetch.Of(&e.bal[y.Dst])
		}
		if pre, landed := e.lanes[e.part.ShardOf(x.Dst)].deliver(x); landed {
			e.engine.Income(&e.host, x.Dst, pre, x.Amount)
		}
	}
}

// barrier is the coordinator step at window end tB: the lanes' lifecycle
// deltas are merged in canonical (time, peer, departure first) order into
// the epoch bitmap (with policy join/depart hooks), due policy epochs
// fire, and due samples record.
func (e *Engine) barrier(tB float64) {
	tM := time.Now()
	e.runScratch = e.runScratch[:0]
	for _, ln := range e.lanes {
		if evs := ln.life.Events(); len(evs) > 0 {
			e.runScratch = append(e.runScratch, evs)
		}
	}
	e.lifeScratch = e.merger.Merge(e.lifeScratch[:0], e.runScratch)
	e.lifeHW = max(e.lifeHW, len(e.lifeScratch))
	e.timings.Merge += time.Since(tM)
	var h *engineHost
	if e.engine != nil {
		h = &e.host
	}
	for _, le := range e.lifeScratch {
		g := le.Src
		if le.Kind == KindDepart {
			e.departures++
			e.aliveEpoch[g>>6] &^= 1 << (uint(g) & 63)
			if h != nil {
				e.engine.Departed(h, g)
			}
		} else {
			e.joins++
			e.aliveEpoch[g>>6] |= 1 << (uint(g) & 63)
			if h != nil {
				e.engine.Joined(h, g)
			}
		}
	}
	if e.rt.mode == RouteAvailability {
		// Mirror publish: fold the same canonical delta sequence through
		// the availability EWMA, refreshing the frozen weights every lane
		// samples from next window.
		tP := time.Now()
		e.publishWeights()
		e.timings.Publish += time.Since(tP)
	}
	if e.engine != nil && e.polEpoch > 0 {
		for e.nextPol <= tB {
			e.engine.Epoch(h, tB)
			e.nextPol += e.polEpoch
		}
	}
	if tB >= e.nextSample || tB >= e.horizon {
		e.sample(tB)
		for e.nextSample <= tB {
			e.nextSample += e.sampleEvery
		}
	}
}

// sample records the metric series at time t from the lane accumulators.
func (e *Engine) sample(t float64) {
	g, _ := e.giniNow()
	e.gini.Add(t, g)
	live := 0
	var sup int64
	for _, ln := range e.lanes {
		live += ln.liveN
		sup += ln.supply
	}
	e.population.Add(t, float64(live))
	e.supply.Add(t, float64(sup+e.pot))
}

// giniNow computes the exact wealth Gini over all live peers in one
// ascending walk over the lanes' balance histograms (stats.HistGini).
func (e *Engine) giniNow() (float64, bool) {
	e.histScratch = e.histScratch[:0]
	for _, ln := range e.lanes {
		e.histScratch = append(e.histScratch, ln.hist)
	}
	return stats.HistGini(e.histScratch...)
}

// Finish verifies conservation and assembles the result. It does not run
// the full Audit, whose per-peer sweep costs milliseconds at 100k peers.
func (e *Engine) Finish() (*Result, error) {
	if e.finished {
		return nil, errors.New("shard: already finished")
	}
	if !e.started {
		return nil, errors.New("shard: not started")
	}
	e.finished = true
	e.running = false
	if err := e.checkConservation(); err != nil {
		return nil, err
	}
	var sup, minted, burned, lostAmt int64
	var transfers, lost, events uint64
	live := 0
	for _, ln := range e.lanes {
		sup += ln.supply
		minted += ln.minted
		burned += ln.burned
		lostAmt += ln.lostAmount
		transfers += ln.transfers
		lost += ln.lostCount
		events += ln.sched.Fired()
		live += ln.liveN
	}
	res := &Result{
		N:               e.n,
		Shards:          e.p,
		Horizon:         e.horizon,
		Events:          events,
		Transfers:       transfers,
		Joins:           e.joins,
		Departures:      e.departures,
		LostInFlight:    lost,
		LostAmount:      lostAmt,
		Minted:          minted,
		Burned:          burned,
		Pot:             e.pot,
		FinalSupply:     sup + e.pot,
		FinalPopulation: live,
		Gini:            e.gini,
		Population:      e.population,
		Supply:          e.supply,
		Counters:        map[string]uint64{},
	}
	res.FinalGini, _ = e.giniNow()
	if e.engine != nil {
		t := e.engine.Totals()
		res.TaxCollected = t.Collected
		res.TaxRedistributed = t.Redistributed
		res.Injected = t.Injected
	}
	for k, name := range e.counterNames {
		var sum uint64
		for _, ln := range e.lanes {
			sum += ln.counts[k]
		}
		res.Counters[name] = sum
	}
	return res, nil
}

// Stats are shard-layout diagnostics — deliberately outside Result,
// because they describe the partitioning (which varies with P), not the
// simulated economy (which does not).
type Stats struct {
	Shards         int
	Windows        uint64
	Transfers      uint64
	CrossTransfers uint64
	CrossFraction  float64 // fraction of directed overlay edges crossing shards
}

// RunStats reports the engine's shard-layout diagnostics.
func (e *Engine) RunStats() Stats {
	st := Stats{Shards: e.p, Windows: e.windows, CrossFraction: e.part.CrossFraction()}
	for _, ln := range e.lanes {
		st.Transfers += ln.transfers
		st.CrossTransfers += ln.crossTransfers
	}
	return st
}

// EventsFired returns the total events dispatched so far across all
// lanes — the cadence counter checkpoint drivers poll between windows.
func (e *Engine) EventsFired() uint64 {
	var n uint64
	for _, ln := range e.lanes {
		n += ln.sched.Fired()
	}
	return n
}

// --- accessors for workloads ---

// N returns the peer count.
func (e *Engine) N() int { return e.n }

// Shards returns the lane count P.
func (e *Engine) Shards() int { return e.p }

// Seed returns the run seed.
func (e *Engine) Seed() int64 { return e.cfg.Seed }

// Horizon returns the simulated duration.
func (e *Engine) Horizon() float64 { return e.horizon }

// Partition exposes the shard-segmented overlay snapshot.
func (e *Engine) Partition() *topology.Partition { return e.part }

// Rand returns peer g's stream; only g's owner lane (or single-threaded
// setup) may advance it.
func (e *Engine) Rand(g int32) *xrand.SplitMix64 { return &e.rng[g] }

// Balance returns peer g's balance; only meaningful for the owner lane.
func (e *Engine) Balance(g int32) int64 { return e.bal[g] }

// Alive reports the owner-lane view of peer g's liveness.
func (e *Engine) Alive(g int32) bool { return e.flags[g]&aliveBit != 0 }

// AliveEpoch reports peer g's liveness as of the current window's start —
// the epoch-consistent view every routing decision must use, local and
// remote alike.
func (e *Engine) AliveEpoch(g int32) bool {
	return e.aliveEpoch[g>>6]&(1<<(uint(g)&63)) != 0
}

// Neighbors returns peer g's overlay neighborhood (ascending global
// indices, read-only).
func (e *Engine) Neighbors(g int32) []int32 { return e.part.Neighbors(g) }

// Lanes returns the lanes' execution contexts; tests and diagnostics
// only.
func (e *Engine) Lanes() []*Lane { return e.lanes }
