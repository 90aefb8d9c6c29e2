package market

import (
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/shard"
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
}

// The market's lane counters, indexed as in shardMarketCounters.
const (
	cAttempts = iota
	cPurchases
	cFailInsolvent
	cFailOffline
	cFailFreeRider
	cFailIsolated
)

var shardMarketCounters = []string{
	cAttempts:      "attempts",
	cPurchases:     "purchases",
	cFailInsolvent: "fail_insolvent",
	cFailOffline:   "fail_offline",
	cFailFreeRider: "fail_freerider",
	cFailIsolated:  "fail_isolated",
}

// NewShard builds the sharded market workload.
func NewShard(cfg ShardConfig) (*ShardMarket, error) {
	if !(cfg.Mu > 0) || math.IsInf(cfg.Mu, 1) {
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
	ln.ScheduleNext(ln.Now()+m.e.Rand(g).Exponential(m.cfg.Mu), g)
}

// OnEvent handles one spend attempt: pick a provider uniformly from the
// neighborhood, transfer on success, and always schedule the next
// attempt — bankrupt peers keep attempting, which is what lets
// redistribution revive them.
func (m *ShardMarket) OnEvent(ln *shard.Lane, ev des.Event) {
	g := ev.Actor
	r := m.e.Rand(g)
	ln.Count(cAttempts)
	nbrs := m.e.Neighbors(g)
	if len(nbrs) == 0 {
		ln.Count(cFailIsolated)
	} else {
		dst := ln.PickNeighbor(ev.Time, g, nbrs, r)
		switch {
		case !m.e.AliveEpoch(dst):
			ln.Count(cFailOffline)
		case m.freeRider(dst):
			ln.Count(cFailFreeRider)
		case !ln.Spend(ev.Time, g, dst, 0, m.cfg.Amount):
			ln.Count(cFailInsolvent)
		default:
			ln.Count(cPurchases)
		}
	}
	ln.ScheduleNext(ev.Time+r.Exponential(m.cfg.Mu), g)
}

// CounterNames names the market's lane counters.
func (m *ShardMarket) CounterNames() []string { return shardMarketCounters }

// Digest folds the workload configuration for snapshot compatibility.
func (m *ShardMarket) Digest() uint64 {
	h := uint64(0x6d61726b6574) // "market"
	h = h*1099511628211 ^ math.Float64bits(m.cfg.Mu)
	h = h*1099511628211 ^ uint64(m.cfg.Amount)
	h = h*1099511628211 ^ math.Float64bits(m.cfg.FreeRiderFrac)
	return h
}
