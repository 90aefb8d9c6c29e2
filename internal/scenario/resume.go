package scenario

import (
	"fmt"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/sim"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/streaming"
)

// Resume configures checkpointing for a scenario run. Every engine shares
// one contract: a capture is a chain link, and a restore reads a chain.
// The scenario layer produces and consumes link bytes; durable storage
// (files) is the caller's concern.
type Resume struct {
	// CheckpointEvery captures the run at the first step boundary at or
	// after each multiple of N total fired events; zero disables periodic
	// checkpointing.
	CheckpointEvery int
	// ChainSink receives the checkpoints (e.g. a snapshot.ChainStore),
	// every one a base. The single-threaded engines write them
	// synchronously; the sharded kernel's pipelined checkpointer seals and
	// writes them behind the following windows.
	ChainSink snapshot.ChainSink
	// Chain, when non-nil, resumes a checkpointed run from a checkpoint
	// chain (e.g. snapshot.ChainStore.Load): one base. The scenario is
	// recompiled to the identical configuration and the run continues
	// from the captured boundary.
	Chain [][]byte
}

// engine is one compiled run on any of the three engines, as the drive
// loop steps it.
type engine interface {
	// step advances to the next step boundary — one event on the
	// single-threaded engines, one window barrier on the sharded kernel —
	// and reports false at the horizon.
	step() bool
	// fired is the total number of events fired, a restored run's
	// checkpointed prefix included.
	fired() uint64
	// checkpointer captures the run into sink at step boundaries.
	checkpointer(sink snapshot.ChainSink) checkpointer
	// finish completes the run and records its result in out.
	finish(out *Outcome) error
}

// checkpointer captures a run at a step boundary; Close flushes the last
// capture.
type checkpointer interface {
	Checkpoint() error
	Close() error
}

// Run compiles the scenario at the given scale and executes it to the
// horizon. shards > 1 runs the sharded kernel with that many lanes;
// shards <= 1 runs the single-threaded market or streaming engine. rs
// adds periodic checkpoints and, with a non-nil rs.Chain, resumes a
// checkpointed run instead of starting fresh; the completed run's Outcome
// is byte-identical to the uninterrupted run's either way.
func Run(sc Scenario, scale Scale, shards int, rs Resume) (*Outcome, error) {
	d, err := sc.dims(scale)
	if err != nil {
		return nil, err
	}
	e, err := sc.open(scale, shards, rs.Chain)
	if err != nil {
		return nil, err
	}
	if err := runToHorizon(e, rs); err != nil {
		return nil, err
	}
	out := &Outcome{Name: sc.Name, Scale: scale, N: d.n, Horizon: d.horizon}
	if err := e.finish(out); err != nil {
		return nil, err
	}
	return out, nil
}

// open compiles the scenario onto its engine, fresh and started, or
// restored from chain.
func (sc Scenario) open(scale Scale, shards int, chain [][]byte) (engine, error) {
	if shards > 1 {
		cfg, err := sc.ShardConfig(scale, shards)
		if err != nil {
			return nil, err
		}
		s, err := start(cfg, chain, shard.NewSim, shard.RestoreChain)
		return shardRun{s, shards}, err
	}
	switch sc.Workload {
	case WorkloadMarket:
		cfg, err := sc.MarketConfig(scale)
		if err != nil {
			return nil, err
		}
		m, err := start(cfg, chain, market.NewSim, market.RestoreChain)
		return serialRun[*market.Result]{m, func(o *Outcome, r *market.Result) { o.Market = r }}, err
	case WorkloadStreaming:
		cfg, err := sc.StreamingConfig(scale)
		if err != nil {
			return nil, err
		}
		m, err := start(cfg, chain, streaming.NewSim, streaming.RestoreChain)
		return serialRun[*streaming.Result]{m, func(o *Outcome, r *streaming.Result) { o.Streaming = r }}, err
	default:
		return nil, fmt.Errorf("%w: workload %d", ErrBadScenario, int(sc.Workload))
	}
}

// start builds a fresh started run, or restores one from a non-nil chain.
func start[C any, S interface{ Start() error }](cfg C, chain [][]byte, fresh func(C) (S, error), restore func(C, [][]byte) (S, error)) (S, error) {
	if chain != nil {
		return restore(cfg, chain)
	}
	s, err := fresh(cfg)
	if err == nil {
		err = s.Start()
	}
	return s, err
}

// runToHorizon steps e to its horizon, checkpointing through rs.ChainSink
// at the first step boundary at or after each multiple of
// rs.CheckpointEvery total fired events. The count is the run's total, so
// a restored run picks the cadence up where its checkpoint left it and
// captures at the same boundaries as the uninterrupted run.
func runToHorizon(e engine, rs Resume) error {
	if rs.CheckpointEvery <= 0 || rs.ChainSink == nil {
		for e.step() {
		}
		return nil
	}
	every := uint64(rs.CheckpointEvery)
	next := (e.fired()/every + 1) * every
	c := e.checkpointer(rs.ChainSink)
	for e.step() {
		if n := e.fired(); n >= next {
			if err := c.Checkpoint(); err != nil {
				return fmt.Errorf("scenario: checkpoint after %d events: %w", n, err)
			}
			next = (n/every + 1) * every
		}
	}
	if err := c.Close(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// serialRun is a single-threaded engine's run: a step boundary is one
// event, and every capture is a chain base. record stores the result.
type serialRun[R any] struct {
	sim interface {
		Step() bool
		Snapshot() []byte
		Kernel() *sim.Kernel
		Finish() (R, error)
	}
	record func(*Outcome, R)
}

func (r serialRun[R]) step() bool    { return r.sim.Step() }
func (r serialRun[R]) fired() uint64 { return r.sim.Kernel().Sched.Fired() }

func (r serialRun[R]) checkpointer(sink snapshot.ChainSink) checkpointer {
	return baseWriter{r.sim.Snapshot, sink}
}

func (r serialRun[R]) finish(out *Outcome) error {
	res, err := r.sim.Finish()
	if err == nil {
		r.record(out, res)
	}
	return err
}

// baseWriter writes every capture of a single-threaded run as a chain
// base, synchronously.
type baseWriter struct {
	snapshot func() []byte
	sink     snapshot.ChainSink
}

func (b baseWriter) Checkpoint() error { return b.sink.WriteBase(b.snapshot()) }
func (b baseWriter) Close() error      { return nil }

// shardRun is a sharded-kernel run: a step boundary is a window barrier.
type shardRun struct {
	*shard.Sim
	shards int
}

func (r shardRun) step() bool    { return r.StepWindow() }
func (r shardRun) fired() uint64 { return r.Engine().EventsFired() }

// checkpointer captures through the pipelined checkpointer: parallel
// fragment encode at the barrier, seal and write overlapped with the
// following windows.
func (r shardRun) checkpointer(sink snapshot.ChainSink) checkpointer {
	return shard.NewCheckpointer(r.Engine(), sink, shard.CheckpointOptions{})
}

func (r shardRun) finish(out *Outcome) error {
	res, err := r.Finish()
	if err != nil {
		return err
	}
	t := r.Engine().Timings()
	out.Shards, out.Routing, out.Shard, out.Timings = r.shards, r.Engine().RoutingMode().String(), res, &t
	return nil
}
