package scenario

import (
	"fmt"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
)

// Resume configures checkpointing for a resumable scenario run. The
// scenario layer produces and consumes snapshot bytes; durable storage
// (files) is the caller's concern.
type Resume struct {
	// CheckpointEvery emits a checkpoint every N delivered events; zero
	// disables periodic checkpointing.
	CheckpointEvery int
	// Sink receives each periodic snapshot of a single-threaded run, a
	// complete restorable file, handed over inline.
	Sink func(data []byte) error
	// ChainSink receives a sharded run's checkpoint links as the
	// pipelined checkpointer seals them — with Delta, dirty-segment delta
	// links between bases.
	ChainSink shard.ChainSink
	// Delta enables dirty-segment delta checkpoints on the ChainSink path.
	Delta bool
	// RebaseEvery bounds a delta chain's length; 0 means the
	// checkpointer's default.
	RebaseEvery int
	// Snapshot, when non-nil, resumes a single-threaded run: the scenario
	// is recompiled to the identical configuration and the run continues
	// from the checkpointed event.
	Snapshot []byte
	// Chain, when non-nil, resumes a sharded run from a checkpoint chain
	// (e.g. snapshot.ChainStore.Load): a base and its deltas, or a lone
	// base.
	Chain [][]byte
}

// stepper is the common surface of the two workloads' Sim handles.
type stepper interface {
	Step() bool
	Snapshot() []byte
}

// drive steps a simulation to completion, checkpointing per rs.
func drive(s stepper, rs Resume) error {
	if rs.CheckpointEvery <= 0 || rs.Sink == nil {
		for s.Step() {
		}
		return nil
	}
	n := 0
	for s.Step() {
		n++
		if n%rs.CheckpointEvery == 0 {
			if err := rs.Sink(s.Snapshot()); err != nil {
				return fmt.Errorf("scenario: checkpoint after %d events: %w", n, err)
			}
		}
	}
	return nil
}

// RunResumable compiles and executes the scenario at the given scale with
// crash/resume support: periodic snapshots flow to rs.Sink, and a non-nil
// rs.Snapshot resumes a checkpointed run instead of starting fresh. The
// completed run's Outcome is byte-identical to Run's — resuming changes
// where execution happens, never what it computes.
func RunResumable(sc Scenario, scale Scale, rs Resume) (*Outcome, error) {
	d, err := sc.dims(scale)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Name: sc.Name, Scale: scale, N: d.n, Horizon: d.horizon}
	switch sc.Workload {
	case WorkloadMarket:
		cfg, err := sc.MarketConfig(scale)
		if err != nil {
			return nil, err
		}
		var m *market.Sim
		if rs.Snapshot != nil {
			m, err = market.RestoreSim(cfg, rs.Snapshot)
		} else {
			if m, err = market.NewSim(cfg); err == nil {
				err = m.Start()
			}
		}
		if err != nil {
			return nil, err
		}
		if err := drive(m, rs); err != nil {
			return nil, err
		}
		res, err := m.Finish()
		if err != nil {
			return nil, err
		}
		out.Market = res
	case WorkloadStreaming:
		cfg, err := sc.StreamingConfig(scale)
		if err != nil {
			return nil, err
		}
		var m *streaming.Sim
		if rs.Snapshot != nil {
			m, err = streaming.RestoreSim(cfg, rs.Snapshot)
		} else {
			if m, err = streaming.NewSim(cfg); err == nil {
				err = m.Start()
			}
		}
		if err != nil {
			return nil, err
		}
		if err := drive(m, rs); err != nil {
			return nil, err
		}
		res, err := m.Finish()
		if err != nil {
			return nil, err
		}
		out.Streaming = res
	default:
		return nil, fmt.Errorf("%w: workload %d", ErrBadScenario, int(sc.Workload))
	}
	return out, nil
}
