package streaming

import (
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/shard"
)

// ShardConfig parameterizes the streaming workload on the sharded
// kernel: the paper's live-streaming credit protocol reduced to its
// round structure. Every live peer runs a playback round once per
// RoundPeriod (with a per-peer phase jitter so rounds spread over the
// period), and in each round requests StreamRate chunks, each from a
// uniformly chosen neighbor. A chunk from a seed peer is free; a chunk
// from a regular peer costs ChunkPrice credits, debited from the buyer
// immediately and credited to the provider at the next window barrier.
// An insolvent buyer stalls for the remaining chunks of the round —
// continuity loss, the quantity the paper's incentive policies exist to
// prevent.
type ShardConfig struct {
	// StreamRate is chunks requested per round.
	StreamRate int
	// ChunkPrice is the credits paid per non-seed chunk.
	ChunkPrice int64
	// RoundPeriod is the time between a peer's rounds.
	RoundPeriod float64
	// SeedFrac is the fraction of peers acting as free-serving seeds,
	// assigned by per-peer Bernoulli draws at setup.
	SeedFrac float64
}

// ShardStreaming implements shard.Workload for ShardConfig.
type ShardStreaming struct {
	cfg   ShardConfig
	e     *shard.Engine
	seeds []uint64
}

// The streaming workload's lane counters, indexed as in
// shardStreamCounters.
const (
	cRounds = iota
	cChunkRequests
	cChunksSeeded
	cChunksTraded
	cChunksOffline
	cChunksStalled
	cRoundsIsolated
)

var shardStreamCounters = []string{
	cRounds:         "rounds",
	cChunkRequests:  "chunk_requests",
	cChunksSeeded:   "chunks_seeded",
	cChunksTraded:   "chunks_traded",
	cChunksOffline:  "chunks_offline",
	cChunksStalled:  "chunks_stalled",
	cRoundsIsolated: "rounds_isolated",
}

// NewShard builds the sharded streaming workload.
func NewShard(cfg ShardConfig) (*ShardStreaming, error) {
	if cfg.StreamRate <= 0 {
		return nil, fmt.Errorf("%w: StreamRate=%d", ErrBadConfig, cfg.StreamRate)
	}
	if cfg.ChunkPrice <= 0 {
		return nil, fmt.Errorf("%w: ChunkPrice=%d", ErrBadConfig, cfg.ChunkPrice)
	}
	if !(cfg.RoundPeriod > 0) || math.IsInf(cfg.RoundPeriod, 1) {
		return nil, fmt.Errorf("%w: RoundPeriod=%v", ErrBadConfig, cfg.RoundPeriod)
	}
	if cfg.SeedFrac < 0 || cfg.SeedFrac > 1 {
		return nil, fmt.Errorf("%w: SeedFrac=%v", ErrBadConfig, cfg.SeedFrac)
	}
	return &ShardStreaming{cfg: cfg}, nil
}

// Setup assigns seed roles by one Bernoulli draw per peer in index
// order from each peer's own stream.
func (s *ShardStreaming) Setup(e *shard.Engine) error {
	s.e = e
	n := e.N()
	s.seeds = make([]uint64, (n+63)/64)
	if s.cfg.SeedFrac > 0 {
		for g := 0; g < n; g++ {
			if e.Rand(int32(g)).Bernoulli(s.cfg.SeedFrac) {
				s.seeds[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}
	return nil
}

func (s *ShardStreaming) isSeed(g int32) bool {
	return s.seeds[g>>6]&(1<<(uint(g)&63)) != 0
}

// Arm schedules peer g's first round with a phase jitter inside one
// period.
func (s *ShardStreaming) Arm(ln *shard.Lane, g int32) {
	ln.ScheduleNext(ln.Now()+s.e.Rand(g).Float64()*s.cfg.RoundPeriod, g)
}

// OnEvent runs one playback round: StreamRate chunk requests, each with
// its own provider draw and intra-instant sequence number, then the next
// round one period later.
func (s *ShardStreaming) OnEvent(ln *shard.Lane, ev des.Event) {
	g := ev.Actor
	r := s.e.Rand(g)
	ln.Count(cRounds)
	nbrs := s.e.Neighbors(g)
	if len(nbrs) == 0 {
		ln.Count(cRoundsIsolated)
	} else {
		for k := 0; k < s.cfg.StreamRate; k++ {
			ln.Count(cChunkRequests)
			dst := ln.PickNeighbor(ev.Time, g, nbrs, r)
			switch {
			case !s.e.AliveEpoch(dst):
				ln.Count(cChunksOffline)
			case s.isSeed(dst):
				ln.Count(cChunksSeeded)
			case !ln.Spend(ev.Time, g, dst, uint32(k), s.cfg.ChunkPrice):
				ln.Count(cChunksStalled)
			default:
				ln.Count(cChunksTraded)
			}
		}
	}
	ln.ScheduleNext(ev.Time+s.cfg.RoundPeriod, g)
}

// CounterNames names the streaming workload's lane counters.
func (s *ShardStreaming) CounterNames() []string { return shardStreamCounters }

// Digest folds the workload configuration for snapshot compatibility.
func (s *ShardStreaming) Digest() uint64 {
	h := uint64(0x73747265616d) // "stream"
	h = h*1099511628211 ^ uint64(s.cfg.StreamRate)
	h = h*1099511628211 ^ uint64(s.cfg.ChunkPrice)
	h = h*1099511628211 ^ math.Float64bits(s.cfg.RoundPeriod)
	h = h*1099511628211 ^ math.Float64bits(s.cfg.SeedFrac)
	return h
}
