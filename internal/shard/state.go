package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"creditp2p/internal/des"
	"creditp2p/internal/pad"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// Checkpoint/restore for the sharded kernel. Captures are taken only at
// window barriers, where the engine is quiescent by construction: every
// outbox has been merged, every lifecycle delta folded, so the mutable
// state is exactly the per-peer arrays, the per-lane schedulers,
// accumulators and workload counters, and the coordinator state — nothing
// in-flight. Workload state beyond that (role tables) replays from the
// peers' stream prefixes at Setup and needs no bytes.
//
// Every capture is a base: a one-link chain that carries the whole state.
// It holds the coordinator's singleton state (scalars, metric series,
// policy state, the epoch bitmap — all small), each lane's scheduler,
// accumulators, workload counters and histogram, and every one of the
// lane's peer segments of the big per-peer arrays (bal, rng, flags,
// pending workload handles and the routing slices), each under its
// segment id. Restore decodes the base, rebuilding each lane's event
// queue as its scheduler loads, and vets the result.
//
// The shard count is part of the physical layout (one lane section per
// lane), so it is stored in plain form ahead of the config digest and
// checked first: restoring at a different P fails with an error that
// names both counts instead of a generic digest mismatch. Everything else
// about the configuration folds into one digest, because any drift there
// invalidates the state wholesale.

// rngWords views the stream array as raw uint64 words for bulk
// serialization; xrand.SplitMix64's state word is its entire stream
// position.
func rngWords(s []xrand.SplitMix64) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// snapID is the deterministic capture identity stamped into the link
// header: a digest of the configuration and the barrier position, so two
// captures of the same run state carry the same id (which is what the
// pipelined-vs-serial byte-identity tests pin), while captures at
// different barriers never collide.
func (e *Engine) snapID() uint64 {
	h := e.configDigest()
	h = fnvU64(h, e.windows)
	h = fnvU64(h, math.Float64bits(e.now))
	h = fnvU64(h, e.joins)
	h = fnvU64(h, e.departures)
	h = fnvU64(h, e.EventsFired())
	return h
}

// segments returns the number of peer segments in the lane's partition.
func (ln *Lane) segments() int {
	return (int(ln.hi-ln.lo) + peerSegSize - 1) >> peerSegShift
}

// segSpan returns the global peer range of the lane's peer segment seg.
// Segments are anchored at the lane's lo, so they never straddle a
// partition boundary.
func (ln *Lane) segSpan(seg int) (lo, hi int32) {
	lo = ln.lo + int32(seg<<peerSegShift)
	return lo, min(lo+peerSegSize, ln.hi)
}

// encoder holds the recycled fragments one base is staged into: the
// header-bearing coordinator fragment (link header and shared section)
// and one raw fragment per lane, encoded in parallel. snapshot.Seal
// concatenates them into exactly the bytes a single serial Writer would
// emit.
type encoder struct {
	coord *snapshot.Writer
	laneW []*laneWriter
	parts [][]byte
}

// laneWriter is one lane's fragment writer, padded to a whole pad.Block:
// the lanes append to their writers concurrently, and unpadded writers
// allocated back to back would share a cache line.
type laneWriter struct {
	snapshot.Writer
	_ [pad.Block - unsafe.Sizeof(snapshot.Writer{})]byte
}

// newEncoder builds the recycled fragments, each lane's writer sized once
// from its content (Lane.sectionBound), so a checkpoint does not regrow it
// step by step.
func newEncoder(e *Engine) *encoder {
	c := &encoder{
		coord: snapshot.NewWriter(1 << 16),
		laneW: make([]*laneWriter, e.p),
		parts: make([][]byte, 0, e.p+1),
	}
	for s, ln := range e.lanes {
		c.laneW[s] = &laneWriter{Writer: *snapshot.NewRawWriter(ln.sectionBound())}
	}
	return c
}

// encode stages a base at the current barrier and returns its fragments
// in seal order.
func (c *encoder) encode(e *Engine) [][]byte {
	c.coord.Reset()
	e.encodeHead(c.coord)
	e.parallel(func(ln *Lane) {
		w := &c.laneW[ln.S].Writer
		w.Reset()
		ln.encode(w)
	})

	c.parts = append(c.parts[:0], c.coord.Frame())
	for _, w := range c.laneW {
		c.parts = append(c.parts, w.Frame())
	}
	return c.parts
}

// encodeHead emits the base's link header, the plain-form layout prologue
// and the coordinator's singleton state: scalars, the liveness epoch
// bitmap, the metric series, and — with a policy pipeline — the policy
// stream and stages (nothing else draws from the stream). The epoch bitmap rides
// whole: at 1 bit per peer it is noise next to one segment, and
// whole-array capture sidesteps the word-straddling a peer-span encoding
// would need at unaligned partition boundaries.
func (e *Engine) encodeHead(w *snapshot.Writer) {
	w.LinkHeader(snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: e.snapID()})
	w.Section("shardhdr")
	w.U32(uint32(e.p))
	w.U64(e.configDigest())
	w.Section("shardeng")
	w.Bool(e.started)
	w.F64(e.now)
	w.F64(e.nextSample)
	w.F64(e.nextPol)
	w.I64(e.pot)
	w.U64(e.joins)
	w.U64(e.departures)
	w.U64(e.windows)
	w.U64s(e.aliveEpoch)
	saveSeries(w, e.gini)
	saveSeries(w, e.population)
	saveSeries(w, e.supply)
	if e.engine != nil {
		e.polRNG.SaveState(w)
		e.engine.SaveState(w)
	}
}

// encode emits one lane's section: its scheduler, the small accumulators
// and workload counters, the trimmed balance histogram — indexed by
// balance, not peer, so it has no per-peer segment structure and rides
// whole — and every peer segment of the lane, in order. Safe to run
// concurrently across lanes: it touches only lane-owned state.
func (ln *Lane) encode(w *snapshot.Writer) {
	e := ln.e
	w.Section("lane")
	ln.sched.SaveState(w)
	w.I64(ln.supply)
	w.I64(ln.minted)
	w.I64(ln.burned)
	w.I64(ln.lostAmount)
	w.U64(ln.transfers)
	w.U64(ln.crossTransfers)
	w.U64(ln.lostCount)
	w.Int(ln.liveN)
	w.U64s(ln.counts[:len(e.counterNames)])
	w.I64s(trimHist(ln.hist))
	segs := ln.segments()
	w.Int(segs)
	for seg := 0; seg < segs; seg++ {
		lo, hi := ln.segSpan(seg)
		w.U32(uint32(seg))
		w.I64s(e.bal[lo:hi])
		w.U64s(rngWords(e.rng[lo:hi]))
		w.U8s(e.flags[lo:hi])
		w.U64s(e.pend[lo:hi])
		ln.saveRoutingSeg(w, lo, hi)
	}
}

// sectionBound bounds the bytes encode writes for this lane, counting
// every field it emits: the scheduler (des.Scheduler.SavedLenBound), the
// accumulators and counters, the histogram at twice its current length
// (room for one doubling as balances grow) and every peer segment with its
// routing slices.
func (ln *Lane) sectionBound() int {
	e := ln.e
	rt := &e.rt
	const prefix = 8 // a slice's length prefix
	peers := int(ln.hi - ln.lo)
	segs := ln.segments()
	n := 1 + len("lane") + ln.sched.SavedLenBound() + 8*8 +
		prefix + 8*len(e.counterNames) + prefix + 2*8*len(ln.hist) + 8
	// Per segment: its id and the bal, rng, flags and pend slices.
	n += segs*(4+4*prefix) + peers*(8+8+1+8)
	if rt.mode != RouteUniform {
		n += segs*prefix + peers*4
	}
	if rt.mode == RouteAvailability {
		n += segs*2*prefix + peers*2*8
	}
	if rt.fenSlab != nil {
		s0, s1 := e.fenSpan(ln.lo, ln.hi)
		n += segs*prefix + 4*int(s1-s0)
	}
	return n
}

// saveRoutingSeg emits the routing slices of one peer segment: the weight
// mirror, the availability EWMA, and the segment's span of the Fenwick
// slab (peer trees are laid out in peer order, so a segment's trees are
// contiguous). Serializing the trees — rather than rebuilding on restore —
// preserves the exact built/stale split and the heavy trees' patch
// history, keeping resumed byte streams identical. That split is part of
// the saved state, so it must change only at picks and barrier publishes:
// a rebuild anywhere else, such as in the dispatch read-ahead, would make
// a resumed run's later checkpoints differ from the straight run's.
func (ln *Lane) saveRoutingSeg(w *snapshot.Writer, lo, hi int32) {
	rt := &ln.e.rt
	if rt.mode == RouteUniform {
		return
	}
	w.F32s(rt.weight[lo:hi])
	if rt.mode == RouteAvailability {
		w.F64s(rt.score[lo:hi])
		w.F64s(rt.scoreT[lo:hi])
	}
	if rt.fenSlab != nil {
		s0, s1 := ln.e.fenSpan(lo, hi)
		w.F32s(rt.fenSlab[s0:s1])
	}
}

// fenSpan returns the Fenwick-slab bounds of peers [lo, hi): peer g's
// tree starts at RowStart(g)+g.
func (e *Engine) fenSpan(lo, hi int32) (int64, int64) {
	return e.part.RowStart(lo) + int64(lo), e.part.RowStart(hi) + int64(hi)
}

// decode loads a base into the freshly built engine.
func (e *Engine) decode(data []byte) error {
	r, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	r.LinkHeader()
	r.Section("shardhdr")
	p := int(r.U32())
	digest := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if p != e.p {
		return fmt.Errorf("shard: snapshot was taken with %d shards, this engine is configured for %d — restore with Shards=%d (shard count changes the lane layout and cannot be remapped)", p, e.p, p)
	}
	if want := e.configDigest(); digest != want {
		return fmt.Errorf("shard: config digest mismatch: snapshot %016x, engine %016x — graph, seed, horizon, policy set or workload differ from the run that produced this snapshot", digest, want)
	}

	r.Section("shardeng")
	e.started = r.Bool()
	e.running = e.started
	e.now = r.F64()
	e.bNow = e.now
	e.nextSample = r.F64()
	e.nextPol = r.F64()
	e.pot = r.I64()
	e.joins = r.U64()
	e.departures = r.U64()
	e.windows = r.U64()
	snapshot.Fill(r, "epoch bitmap", e.aliveEpoch)
	if err := loadSeries(r, e.gini); err != nil {
		return err
	}
	if err := loadSeries(r, e.population); err != nil {
		return err
	}
	if err := loadSeries(r, e.supply); err != nil {
		return err
	}
	if e.engine != nil {
		e.polRNG.LoadState(r)
		if err := e.engine.LoadState(r); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	for _, ln := range e.lanes {
		if err := ln.decode(r); err != nil {
			return err
		}
	}
	return r.Close()
}

// decode loads one lane section into the lane. The section must list
// every peer segment of the lane, in order. A peer's static heavy-hitter
// bit must survive, and the built-tree bit needs a Fenwick slab.
func (ln *Lane) decode(r *snapshot.Reader) error {
	e := ln.e
	r.Section("lane")
	if err := ln.sched.LoadState(r); err != nil {
		return fmt.Errorf("shard: lane %d: %w", ln.S, err)
	}
	ln.supply = r.I64()
	ln.minted = r.I64()
	ln.burned = r.I64()
	ln.lostAmount = r.I64()
	ln.transfers = r.U64()
	ln.crossTransfers = r.U64()
	ln.lostCount = r.U64()
	ln.liveN = r.Int()
	snapshot.Fill(r, "workload counters", ln.counts[:len(e.counterNames)])
	hist := r.I64s(0)
	segs := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	clear(ln.hist)
	if len(hist) > 0 {
		ln.hist.Grow(int64(len(hist) - 1))
		copy(ln.hist, hist)
	}
	maxSeg := ln.segments()
	if segs != maxSeg {
		return fmt.Errorf("shard: lane %d carries %d of its %d peer segments", ln.S, segs, maxSeg)
	}
	flagMask := aliveBit | heavyBit
	if e.rt.fenSlab != nil {
		flagMask |= fenBuiltBit
	}
	for seg := 0; seg < segs; seg++ {
		got := int(r.U32())
		if err := r.Err(); err != nil {
			return err
		}
		if got != seg {
			return fmt.Errorf("shard: lane %d segment %d out of order or outside its %d-segment partition", ln.S, got, maxSeg)
		}
		lo, hi := ln.segSpan(seg)
		snapshot.Fill(r, "balances", e.bal[lo:hi])
		snapshot.Fill(r, "peer streams", rngWords(e.rng[lo:hi]))
		snapshot.Fill(r, "peer flags", e.flags[lo:hi])
		snapshot.Fill(r, "pending handles", e.pend[lo:hi])
		ln.loadRoutingSeg(r, lo, hi)
		if err := r.Err(); err != nil {
			return fmt.Errorf("shard: lane %d segment %d: %w", ln.S, seg, err)
		}
		for g := lo; g < hi; g++ {
			if f := e.flags[g]; f&^flagMask != 0 || f&heavyBit != e.heavyFlag(g) {
				return fmt.Errorf("shard: peer %d restored with flags %#x", g, f)
			}
		}
	}
	return nil
}

// loadRoutingSeg decodes one segment's routing slices in place, mirroring
// saveRoutingSeg; a failure is left in r.
func (ln *Lane) loadRoutingSeg(r *snapshot.Reader, lo, hi int32) {
	rt := &ln.e.rt
	if rt.mode == RouteUniform {
		return
	}
	snapshot.Fill(r, "routing weights", rt.weight[lo:hi])
	if rt.mode == RouteAvailability {
		snapshot.Fill(r, "availability scores", rt.score[lo:hi])
		snapshot.Fill(r, "availability score times", rt.scoreT[lo:hi])
	}
	if rt.fenSlab != nil {
		s0, s1 := ln.e.fenSpan(lo, hi)
		snapshot.Fill(r, "sampler slab", rt.fenSlab[s0:s1])
	}
}

// Audit checks the invariants the engine keeps at every window barrier:
// the clocks sit on their grids, every queued event belongs to its lane
// (lifecycle kinds only under churn), every live workload event is named
// by exactly its actor's pending handle and offline peers hold none, both
// liveness views agree, balances index the histograms, the lane
// accumulators match their peers, and credits are conserved. It returns
// the first violation found. Call it between StepWindow calls, never
// while a window runs; RestoreChain runs it on every restored engine, so
// a base whose bytes pass the checksum but whose content is inconsistent
// is refused instead of panicking or stalling the resumed run.
func (e *Engine) Audit() error {
	if !e.started {
		return errors.New("shard: the run has not started")
	}
	if !(e.now >= 0 && e.now <= e.horizon) || !(e.nextSample > e.now && e.nextSample <= e.now+2*e.sampleEvery) {
		return fmt.Errorf("shard: clock %v (next sample %v) is off the %v-horizon sampling grid", e.now, e.nextSample, e.horizon)
	}
	if e.engine != nil && e.polEpoch > 0 && !(e.nextPol > e.now && e.nextPol <= e.now+2*e.polEpoch) {
		return fmt.Errorf("shard: policy epoch due at %v, clock at %v", e.nextPol, e.now)
	}
	for _, ln := range e.lanes {
		if err := ln.audit(); err != nil {
			return err
		}
	}
	return e.checkConservation()
}

// checkConservation checks that the circulating supply plus the pot is
// every credit minted less every credit burned.
func (e *Engine) checkConservation() error {
	var sup, minted, burned int64
	for _, ln := range e.lanes {
		sup += ln.supply
		minted += ln.minted
		burned += ln.burned
	}
	if sup+e.pot != minted-burned {
		return fmt.Errorf("shard: conservation violated: supply %d + pot %d != minted %d - burned %d", sup, e.pot, minted, burned)
	}
	return nil
}

// audit is the per-lane half of Audit.
func (ln *Lane) audit() error {
	e := ln.e
	if err := ln.sched.CheckIntegrity(); err != nil {
		return fmt.Errorf("shard: lane %d: %w", ln.S, err)
	}
	churn := e.cfg.Churn.Enabled()
	named := 0
	err := ln.sched.EachQueued(func(ev des.Event, h des.Handle, live bool) error {
		lifecycle := ev.Kind == KindDepart || ev.Kind == KindRejoin
		if ev.Actor < ln.lo || ev.Actor >= ln.hi || !(ev.Kind == KindUser || churn && lifecycle) {
			return fmt.Errorf("shard: lane %d queues a kind-%d event for peer %d", ln.S, ev.Kind, ev.Actor)
		}
		if live && ev.Kind == KindUser {
			if p := e.pend[ev.Actor]; p != h.Pack() {
				return fmt.Errorf("shard: peer %d's queued workload event %#x is not named by its pending handle %#x", ev.Actor, h.Pack(), p)
			}
			named++
		}
		return nil
	})
	if err != nil {
		return err
	}
	rest := slices.Clone(ln.hist)
	live, sup, holders := 0, int64(0), 0
	for g := ln.lo; g < ln.hi; g++ {
		b, alive := e.bal[g], e.flags[g]&aliveBit != 0
		if alive != e.AliveEpoch(g) || !alive && b != 0 || alive && (b < 0 || b >= int64(len(rest))) {
			return fmt.Errorf("shard: peer %d has balance %d, flags %#x, epoch liveness %v", g, b, e.flags[g], e.AliveEpoch(g))
		}
		if p := e.pend[g]; p != 0 {
			if !alive {
				return fmt.Errorf("shard: offline peer %d holds pending handle %#x", g, p)
			}
			holders++
		}
		if alive {
			rest[b]--
			live++
			sup += b
		}
	}
	// Each named event is its own actor's handle, so the handles name
	// distinct events; as many holders as named events leaves none naming
	// anything else.
	if holders != named {
		return fmt.Errorf("shard: lane %d has %d peers holding a pending handle but %d live workload events", ln.S, holders, named)
	}
	if live != ln.liveN || sup != ln.supply {
		return fmt.Errorf("shard: lane %d records %d live peers holding %d credits, its peers say %d holding %d",
			ln.S, ln.liveN, ln.supply, live, sup)
	}
	if b := slices.IndexFunc(rest, func(c int64) bool { return c != 0 }); b >= 0 {
		return fmt.Errorf("shard: lane %d's balance histogram is off by %d peers at balance %d", ln.S, rest[b], b)
	}
	return nil
}

// configDigest folds the run configuration that the serialized state
// depends on (everything except the shard count, which is checked in
// plain form).
func (e *Engine) configDigest() uint64 {
	h := fnvOffset
	h = fnvU64(h, uint64(e.n))
	h = fnvU64(h, math.Float64bits(e.window))
	h = fnvU64(h, math.Float64bits(e.horizon))
	h = fnvU64(h, uint64(e.cfg.Seed))
	h = fnvU64(h, uint64(e.cfg.InitialWealth))
	h = fnvU64(h, math.Float64bits(e.sampleEvery))
	h = fnvU64(h, math.Float64bits(e.polEpoch))
	h = fnvU64(h, uint64(e.cfg.Queue)) // selects nothing; folded for digest continuity
	h = fnvU64(h, math.Float64bits(e.cfg.Churn.MeanLifespan))
	h = fnvU64(h, math.Float64bits(e.cfg.Churn.MeanDowntime))
	if e.cfg.Churn.RejoinRate != nil {
		h = fnvU64(h, 0x726a7368617065) // "rjshape": churn shaping present
		h = fnvU64(h, e.cfg.Churn.RateDigest)
	}
	h = e.routingDigest(h)
	h = fnvU64(h, uint64(len(e.cfg.Policies)))
	h = fnvU64(h, uint64(e.part.Edges()))
	h = fnvU64(h, e.cfg.Workload.Digest())
	return h
}

func saveSeries(w *snapshot.Writer, s *trace.Series) {
	w.F64s(s.Times)
	w.F64s(s.Values)
}

func loadSeries(r *snapshot.Reader, s *trace.Series) error {
	s.Times = r.F64s(0)
	s.Values = r.F64s(0)
	if err := r.Err(); err != nil {
		return err
	}
	if len(s.Times) != len(s.Values) {
		return fmt.Errorf("shard: series with %d times but %d values", len(s.Times), len(s.Values))
	}
	return nil
}

// trimHist drops trailing zero buckets so sparse histograms serialize
// small.
func trimHist(h []int64) []int64 {
	i := len(h)
	for i > 0 && h[i-1] == 0 {
		i--
	}
	return h[:i]
}

// Sim is the resumable handle over a sharded run, mirroring the
// single-threaded kernels' Sim shape: build, start, step windows,
// snapshot at any boundary, finish.
type Sim struct {
	e *Engine
}

// NewSim builds an engine without arming it; call Start to begin, or
// RestoreChain instead to resume from a checkpoint.
func NewSim(cfg Config) (*Sim, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{e: e}, nil
}

// Start arms the initial events and records the t=0 sample.
func (s *Sim) Start() error { return s.e.Start() }

// StepWindow advances one conservative-sync window; false at the horizon.
func (s *Sim) StepWindow() bool { return s.e.StepWindow() }

// Now returns the engine's barrier time.
func (s *Sim) Now() float64 { return s.e.now }

// Engine exposes the underlying engine.
func (s *Sim) Engine() *Engine { return s.e }

// Snapshot serializes the run at the current window boundary as a base:
// the serial form of the Checkpointer's encode, byte for byte.
func (s *Sim) Snapshot() []byte {
	return snapshot.Seal(nil, newEncoder(s.e).encode(s.e))
}

// Finish completes the run and returns the result.
func (s *Sim) Finish() (*Result, error) { return s.e.Finish() }

// RestoreChain rebuilds a run from cfg and a checkpoint chain: one base,
// as a Checkpointer or Snapshot wrote it. The chain is validated —
// checksum, one link, a base's header — before any state is touched; then
// the base decodes and the restored engine must pass Audit. The result is
// byte-identical to the uninterrupted run under a configuration matching
// the one that produced the base (shard-count or config mismatches are
// refused with descriptive errors).
func RestoreChain(cfg Config, chain [][]byte) (*Sim, error) {
	if err := snapshot.ValidateChain(chain); err != nil {
		return nil, err
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.decode(chain[0]); err != nil {
		return nil, err
	}
	if err := e.Audit(); err != nil {
		return nil, err
	}
	return &Sim{e: e}, nil
}
