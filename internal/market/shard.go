package market

import (
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/pad"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

// ShardConfig parameterizes the market workload on the sharded kernel:
// the paper's credit market reduced to its open-loop core. Every live
// peer attempts a one-credit purchase after an exponential service time
// with rate Mu, routed uniformly over its overlay neighborhood (the
// paper's symmetric transfer matrix); the purchase fails — without retry
// and without disturbing the attempt process — when the buyer is
// insolvent, the chosen provider is offline as of the window start, or
// the provider is a free rider with nothing to serve. Free riders
// (Sec. VI-B) keep buying but never earn, so they drain to bankruptcy
// unless a redistribution policy feeds them.
//
// Open-loop attempts are what make the workload shard-count-invariant:
// every decision a peer makes depends only on its own stream, its own
// balance, and window-start liveness — never on another lane's
// mid-window state.
type ShardConfig struct {
	// Mu is the per-peer spend-attempt rate (attempts per second).
	Mu float64
	// Amount is the credits transferred per successful purchase.
	Amount int64
	// FreeRiderFrac is the fraction of peers that serve nothing,
	// assigned by per-peer Bernoulli draws at setup.
	FreeRiderFrac float64
}

// ShardMarket implements shard.Workload for ShardConfig. Build with
// NewShard and pass as Config.Workload.
type ShardMarket struct {
	cfg ShardConfig
	e   *shard.Engine
	// fr marks free riders (static after setup, derived from each peer's
	// stream prefix).
	fr []uint64
	// pend holds each live peer's next attempt event for churn retire.
	pend []des.Handle
	// hscratch is the recycled handle-packing buffer for checkpoint captures.
	hscratch []uint64
	// per-lane counters, summed into Result.Counters at finish.
	lanes []shardMarketCounters
}

// shardMarketCounters is one lane's counter set. Each lane bumps its own
// set on every event, so the sets are padded to a whole pad.Block: two
// lanes' counters must never share a cache line.
type shardMarketCounters struct {
	attempts      uint64
	purchases     uint64
	failInsolvent uint64
	failOffline   uint64
	failFreeRider uint64
	failIsolated  uint64
	_             [pad.Block - 6*8]byte
}

// NewShard builds the sharded market workload.
func NewShard(cfg ShardConfig) (*ShardMarket, error) {
	if cfg.Mu <= 0 {
		return nil, fmt.Errorf("%w: Mu=%v", ErrBadConfig, cfg.Mu)
	}
	if cfg.Amount <= 0 {
		return nil, fmt.Errorf("%w: Amount=%d", ErrBadConfig, cfg.Amount)
	}
	if cfg.FreeRiderFrac < 0 || cfg.FreeRiderFrac > 1 {
		return nil, fmt.Errorf("%w: FreeRiderFrac=%v", ErrBadConfig, cfg.FreeRiderFrac)
	}
	return &ShardMarket{cfg: cfg}, nil
}

// Setup assigns free-rider roles by one Bernoulli draw per peer, in
// index order, from each peer's own stream — a fixed stream prefix that
// replays identically when an engine is rebuilt for restore.
func (m *ShardMarket) Setup(e *shard.Engine) error {
	m.e = e
	n := e.N()
	m.fr = make([]uint64, (n+63)/64)
	m.pend = make([]des.Handle, n)
	m.lanes = make([]shardMarketCounters, e.Shards())
	if m.cfg.FreeRiderFrac > 0 {
		for g := 0; g < n; g++ {
			if e.Rand(int32(g)).Bernoulli(m.cfg.FreeRiderFrac) {
				m.fr[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	}
	return nil
}

func (m *ShardMarket) freeRider(g int32) bool {
	return m.fr[g>>6]&(1<<(uint(g)&63)) != 0
}

// Arm schedules peer g's first attempt.
func (m *ShardMarket) Arm(ln *shard.Lane, g int32) {
	delay := m.e.Rand(g).Exponential(m.cfg.Mu)
	m.pend[g] = ln.ScheduleAt(ln.Now()+delay, shard.KindUser, g, 0)
}

// OnEvent handles one spend attempt: pick a provider uniformly from the
// neighborhood, transfer on success, and always schedule the next
// attempt — bankrupt peers keep attempting, which is what lets
// redistribution revive them.
func (m *ShardMarket) OnEvent(ln *shard.Lane, ev des.Event) {
	g := ev.Actor
	r := m.e.Rand(g)
	c := &m.lanes[ln.S]
	c.attempts++
	nbrs := m.e.Neighbors(g)
	if len(nbrs) == 0 {
		c.failIsolated++
	} else {
		dst := ln.PickNeighbor(ev.Time, g, nbrs, r)
		switch {
		case !m.e.AliveEpoch(dst):
			c.failOffline++
		case m.freeRider(dst):
			c.failFreeRider++
		case !ln.Spend(ev.Time, g, dst, 0, m.cfg.Amount):
			c.failInsolvent++
		default:
			c.purchases++
		}
	}
	delay := r.Exponential(m.cfg.Mu)
	m.pend[g] = ln.ScheduleAt(ev.Time+delay, shard.KindUser, g, 0)
}

// WarmActor implements shard.ActorWarmer: it touches the peer's pending
// handle (the one workload array OnEvent hits that the kernel cannot see)
// and warms the routing sampler — rebuilding the peer's Fenwick tree if a
// barrier left it stale, so the rebuild cost overlaps with earlier events
// instead of landing on the pick itself.
func (m *ShardMarket) WarmActor(g int32) uint32 {
	return uint32(m.pend[g].Pack()) + m.e.WarmSampler(g)
}

// Retire cancels the departing peer's pending attempt.
func (m *ShardMarket) Retire(ln *shard.Lane, g int32) {
	ln.Cancel(m.pend[g])
	m.pend[g] = des.Handle{}
}

// Finish sums the per-lane counters into the result.
func (m *ShardMarket) Finish(res *shard.Result) {
	var t shardMarketCounters
	for _, c := range m.lanes {
		t.attempts += c.attempts
		t.purchases += c.purchases
		t.failInsolvent += c.failInsolvent
		t.failOffline += c.failOffline
		t.failFreeRider += c.failFreeRider
		t.failIsolated += c.failIsolated
	}
	res.Counters["attempts"] = t.attempts
	res.Counters["purchases"] = t.purchases
	res.Counters["fail_insolvent"] = t.failInsolvent
	res.Counters["fail_offline"] = t.failOffline
	res.Counters["fail_freerider"] = t.failFreeRider
	res.Counters["fail_isolated"] = t.failIsolated
}

// Digest folds the workload configuration for snapshot compatibility.
func (m *ShardMarket) Digest() uint64 {
	h := uint64(0x6d61726b6574) // "market"
	h = h*1099511628211 ^ math.Float64bits(m.cfg.Mu)
	h = h*1099511628211 ^ uint64(m.cfg.Amount)
	h = h*1099511628211 ^ math.Float64bits(m.cfg.FreeRiderFrac)
	return h
}

// SaveSpans serializes the pending handles of the peers in spans (a
// peer's handle changes only when one of its own events fires, which
// dirties its segment) plus the per-lane counters, a few words per shard.
// The free-rider map replays from the stream prefixes at rebuild and needs
// no bytes.
func (m *ShardMarket) SaveSpans(w *snapshot.Writer, spans []shard.PeerSpan) {
	w.Section("mkshard")
	for _, sp := range spans {
		n := int(sp.Hi - sp.Lo)
		if cap(m.hscratch) < n {
			m.hscratch = make([]uint64, n)
		}
		hs := m.hscratch[:n]
		for i := range hs {
			hs[i] = m.pend[sp.Lo+int32(i)].Pack()
		}
		w.U64s(hs)
	}
	w.Int(len(m.lanes))
	for _, c := range m.lanes {
		w.U64(c.attempts)
		w.U64(c.purchases)
		w.U64(c.failInsolvent)
		w.U64(c.failOffline)
		w.U64(c.failFreeRider)
		w.U64(c.failIsolated)
	}
}

// LoadSpans applies a section written by SaveSpans with the same spans.
func (m *ShardMarket) LoadSpans(r *snapshot.Reader, spans []shard.PeerSpan) error {
	r.Section("mkshard")
	for _, sp := range spans {
		n := int(sp.Hi - sp.Lo)
		hs := r.U64s(n)
		if err := r.Err(); err != nil {
			return err
		}
		if len(hs) != n {
			return fmt.Errorf("market: shard snapshot span [%d,%d) carries %d handles, want %d", sp.Lo, sp.Hi, len(hs), n)
		}
		for i, v := range hs {
			m.pend[sp.Lo+int32(i)] = des.UnpackHandle(v)
		}
	}
	if got := r.Int(); got != len(m.lanes) {
		return fmt.Errorf("market: shard snapshot has %d lane counter sets, want %d", got, len(m.lanes))
	}
	for i := range m.lanes {
		c := &m.lanes[i]
		c.attempts = r.U64()
		c.purchases = r.U64()
		c.failInsolvent = r.U64()
		c.failOffline = r.U64()
		c.failFreeRider = r.U64()
		c.failIsolated = r.U64()
	}
	return r.Err()
}
