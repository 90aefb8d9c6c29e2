package scenario

import (
	"fmt"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/streaming"
)

// Resume configures checkpointing for a sharded scenario run: a capture
// is a chain base, and a restore reads a chain. The scenario layer
// produces and consumes base bytes; durable storage (files) is the
// caller's concern. Only the sharded kernel checkpoints, so Run refuses a
// non-empty Resume with shards <= 1.
type Resume struct {
	// CheckpointEvery captures the run at the first window barrier at or
	// after each multiple of N total fired events; zero disables periodic
	// checkpointing.
	CheckpointEvery int
	// ChainSink receives the checkpoints (e.g. a snapshot.ChainStore),
	// every one a base, sealed and written by the pipelined checkpointer
	// behind the following windows.
	ChainSink snapshot.ChainSink
	// Chain, when non-nil, resumes a checkpointed run from a checkpoint
	// chain (e.g. snapshot.ChainStore.Load): one base. The scenario is
	// recompiled to the identical configuration and the run continues
	// from the captured barrier.
	Chain [][]byte
}

// Run compiles the scenario at the given scale and executes it to the
// horizon. shards > 1 runs the sharded kernel with that many lanes;
// shards <= 1 runs the single-threaded market or streaming engine, which
// takes no Resume. rs adds periodic checkpoints and, with a non-nil
// rs.Chain, resumes a checkpointed run instead of starting fresh; the
// completed run's Outcome is byte-identical to the uninterrupted run's
// either way.
func Run(sc Scenario, scale Scale, shards int, rs Resume) (*Outcome, error) {
	d, err := sc.dims(scale)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Name: sc.Name, Scale: scale, N: d.n, Horizon: d.horizon}
	if shards > 1 {
		err = sc.runSharded(scale, shards, rs, out)
	} else {
		err = sc.runSerial(scale, rs, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runSerial runs the scenario on its single-threaded engine.
func (sc Scenario) runSerial(scale Scale, rs Resume, out *Outcome) error {
	if rs.CheckpointEvery != 0 || rs.ChainSink != nil || rs.Chain != nil {
		return fmt.Errorf("%w: checkpoint and restore need the sharded kernel (shards > 1)", ErrBadScenario)
	}
	switch sc.Workload {
	case WorkloadMarket:
		cfg, err := sc.MarketConfig(scale)
		if err != nil {
			return err
		}
		out.Market, err = market.Run(cfg)
		return err
	case WorkloadStreaming:
		cfg, err := sc.StreamingConfig(scale)
		if err != nil {
			return err
		}
		out.Streaming, err = streaming.Run(cfg)
		return err
	default:
		return fmt.Errorf("%w: workload %d", ErrBadScenario, int(sc.Workload))
	}
}

// runSharded runs the scenario on the sharded kernel, fresh and started
// or restored from rs.Chain, checkpointing per rs.
func (sc Scenario) runSharded(scale Scale, shards int, rs Resume, out *Outcome) error {
	cfg, err := sc.ShardConfig(scale, shards)
	if err != nil {
		return err
	}
	var s *shard.Sim
	if rs.Chain != nil {
		s, err = shard.RestoreChain(cfg, rs.Chain)
	} else if s, err = shard.NewSim(cfg); err == nil {
		err = s.Start()
	}
	if err != nil {
		return err
	}
	if err := runToHorizon(s, rs); err != nil {
		return err
	}
	res, err := s.Finish()
	if err != nil {
		return err
	}
	e := s.Engine()
	t := e.Timings()
	out.Shards, out.Routing, out.Shard, out.Timings = shards, e.RoutingMode().String(), res, &t
	return nil
}

// runToHorizon steps s to its horizon, checkpointing through rs.ChainSink
// at the first window barrier at or after each multiple of
// rs.CheckpointEvery total fired events. The count is the run's total, so
// a restored run picks the cadence up where its checkpoint left it and
// captures at the same barriers as the uninterrupted run. The pipelined
// checkpointer encodes each base's fragments in parallel at the barrier
// and overlaps the seal and write with the following windows.
func runToHorizon(s *shard.Sim, rs Resume) error {
	if rs.CheckpointEvery <= 0 || rs.ChainSink == nil {
		for s.StepWindow() {
		}
		return nil
	}
	e := s.Engine()
	every := uint64(rs.CheckpointEvery)
	next := (e.EventsFired()/every + 1) * every
	c := shard.NewCheckpointer(e, rs.ChainSink, shard.CheckpointOptions{})
	for s.StepWindow() {
		if n := e.EventsFired(); n >= next {
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
