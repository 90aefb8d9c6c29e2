package streaming

import (
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/pad"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
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
	pend  []des.Handle
	lanes []shardStreamCounters
	// hscratch is the recycled handle-packing buffer for checkpoint captures.
	hscratch []uint64
}

// shardStreamCounters is one lane's counter set, padded to a whole
// pad.Block so two lanes' per-event increments never share a cache line.
type shardStreamCounters struct {
	rounds        uint64
	chunkRequests uint64
	chunksSeeded  uint64
	chunksTraded  uint64
	chunksOffline uint64
	chunksStalled uint64
	failIsolated  uint64
	_             [pad.Block - 7*8]byte
}

// NewShard builds the sharded streaming workload.
func NewShard(cfg ShardConfig) (*ShardStreaming, error) {
	if cfg.StreamRate <= 0 {
		return nil, fmt.Errorf("%w: StreamRate=%d", ErrBadConfig, cfg.StreamRate)
	}
	if cfg.ChunkPrice <= 0 {
		return nil, fmt.Errorf("%w: ChunkPrice=%d", ErrBadConfig, cfg.ChunkPrice)
	}
	if cfg.RoundPeriod <= 0 {
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
	s.pend = make([]des.Handle, n)
	s.lanes = make([]shardStreamCounters, e.Shards())
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
	phase := s.e.Rand(g).Float64() * s.cfg.RoundPeriod
	s.pend[g] = ln.ScheduleAt(ln.Now()+phase, shard.KindUser, g, 0)
}

// OnEvent runs one playback round: StreamRate chunk requests, each with
// its own provider draw and intra-instant sequence number, then the next
// round one period later.
func (s *ShardStreaming) OnEvent(ln *shard.Lane, ev des.Event) {
	g := ev.Actor
	r := s.e.Rand(g)
	c := &s.lanes[ln.S]
	c.rounds++
	nbrs := s.e.Neighbors(g)
	if len(nbrs) == 0 {
		c.failIsolated++
	} else {
		for k := 0; k < s.cfg.StreamRate; k++ {
			c.chunkRequests++
			dst := ln.PickNeighbor(ev.Time, g, nbrs, r)
			switch {
			case !s.e.AliveEpoch(dst):
				c.chunksOffline++
			case s.isSeed(dst):
				c.chunksSeeded++
			case !ln.Spend(ev.Time, g, dst, uint32(k), s.cfg.ChunkPrice):
				c.chunksStalled++
			default:
				c.chunksTraded++
			}
		}
	}
	s.pend[g] = ln.ScheduleAt(ev.Time+s.cfg.RoundPeriod, shard.KindUser, g, 0)
}

// WarmActor implements shard.ActorWarmer: it touches the peer's pending
// handle and warms the routing sampler, rebuilding a barrier-staled
// Fenwick tree ahead of the round's picks.
func (s *ShardStreaming) WarmActor(g int32) uint32 {
	return uint32(s.pend[g].Pack()) + s.e.WarmSampler(g)
}

// Retire cancels the departing peer's next round.
func (s *ShardStreaming) Retire(ln *shard.Lane, g int32) {
	ln.Cancel(s.pend[g])
	s.pend[g] = des.Handle{}
}

// Finish sums the per-lane counters into the result.
func (s *ShardStreaming) Finish(res *shard.Result) {
	var t shardStreamCounters
	for _, c := range s.lanes {
		t.rounds += c.rounds
		t.chunkRequests += c.chunkRequests
		t.chunksSeeded += c.chunksSeeded
		t.chunksTraded += c.chunksTraded
		t.chunksOffline += c.chunksOffline
		t.chunksStalled += c.chunksStalled
		t.failIsolated += c.failIsolated
	}
	res.Counters["rounds"] = t.rounds
	res.Counters["chunk_requests"] = t.chunkRequests
	res.Counters["chunks_seeded"] = t.chunksSeeded
	res.Counters["chunks_traded"] = t.chunksTraded
	res.Counters["chunks_offline"] = t.chunksOffline
	res.Counters["chunks_stalled"] = t.chunksStalled
	res.Counters["rounds_isolated"] = t.failIsolated
}

// Digest folds the workload configuration for snapshot compatibility.
func (s *ShardStreaming) Digest() uint64 {
	h := uint64(0x73747265616d) // "stream"
	h = h*1099511628211 ^ uint64(s.cfg.StreamRate)
	h = h*1099511628211 ^ uint64(s.cfg.ChunkPrice)
	h = h*1099511628211 ^ math.Float64bits(s.cfg.RoundPeriod)
	h = h*1099511628211 ^ math.Float64bits(s.cfg.SeedFrac)
	return h
}

// SaveSpans serializes the pending handles of the peers in spans plus
// the per-lane counters; seed roles replay from the stream prefixes at
// rebuild.
func (s *ShardStreaming) SaveSpans(w *snapshot.Writer, spans []shard.PeerSpan) {
	w.Section("stshard")
	for _, sp := range spans {
		n := int(sp.Hi - sp.Lo)
		if cap(s.hscratch) < n {
			s.hscratch = make([]uint64, n)
		}
		hs := s.hscratch[:n]
		for i := range hs {
			hs[i] = s.pend[sp.Lo+int32(i)].Pack()
		}
		w.U64s(hs)
	}
	w.Int(len(s.lanes))
	for _, c := range s.lanes {
		w.U64(c.rounds)
		w.U64(c.chunkRequests)
		w.U64(c.chunksSeeded)
		w.U64(c.chunksTraded)
		w.U64(c.chunksOffline)
		w.U64(c.chunksStalled)
		w.U64(c.failIsolated)
	}
}

// LoadSpans applies a section written by SaveSpans with the same spans.
func (s *ShardStreaming) LoadSpans(r *snapshot.Reader, spans []shard.PeerSpan) error {
	r.Section("stshard")
	for _, sp := range spans {
		n := int(sp.Hi - sp.Lo)
		hs := r.U64s(n)
		if err := r.Err(); err != nil {
			return err
		}
		if len(hs) != n {
			return fmt.Errorf("streaming: shard snapshot span [%d,%d) carries %d handles, want %d", sp.Lo, sp.Hi, len(hs), n)
		}
		for i, v := range hs {
			s.pend[sp.Lo+int32(i)] = des.UnpackHandle(v)
		}
	}
	if got := r.Int(); got != len(s.lanes) {
		return fmt.Errorf("streaming: shard snapshot has %d lane counter sets, want %d", got, len(s.lanes))
	}
	for i := range s.lanes {
		c := &s.lanes[i]
		c.rounds = r.U64()
		c.chunkRequests = r.U64()
		c.chunksSeeded = r.U64()
		c.chunksTraded = r.U64()
		c.chunksOffline = r.U64()
		c.chunksStalled = r.U64()
		c.failIsolated = r.U64()
	}
	return r.Err()
}
