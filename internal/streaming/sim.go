package streaming

import (
	"fmt"
	"math"

	"creditp2p/internal/credit"
	"creditp2p/internal/sim"
	"creditp2p/internal/snapshot"
)

// Sim is a stepwise handle over one streaming-swarm simulation, exposing
// the run phases Run fuses — construction, start, event-by-event stepping,
// snapshot and finish — so drivers can checkpoint mid-run, crash at an
// arbitrary event index, and resume byte-identically. Run(cfg) is
// implemented on top of this handle and is byte-identical to driving it
// manually.
type Sim struct {
	s *swarm
}

// NewSim validates cfg and builds a swarm ready to Start.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSwarm(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

// Kernel exposes the underlying simulation kernel (fault injection hooks,
// audits, metrics).
func (m *Sim) Kernel() *sim.Kernel { return m.s.k }

// Start arms the tick stream. Call exactly once, and not on a restored Sim
// (its pending set already holds the armed events).
func (m *Sim) Start() error { return m.s.k.Start() }

// Step delivers the next pending event within the horizon, reporting
// whether one fired. Each swarm round is one tick event.
func (m *Sim) Step() bool { return m.s.k.Step() }

// Run delivers every remaining event and seals virtual time at the horizon.
func (m *Sim) Run() { m.s.k.Run() }

// Finish seals virtual time (idempotent after Run) and assembles the
// Result, verifying credit conservation.
func (m *Sim) Finish() (*Result, error) {
	m.s.k.SealTime()
	if err := m.s.finish(); err != nil {
		return nil, err
	}
	return m.s.res, nil
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	m, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	m.Run()
	return m.Finish()
}

// maxPeerBudget bounds every peer-indexed allocation a snapshot restore may
// perform. The swarm population is fixed at construction, so the budget is
// the population with headroom; a snapshot declaring larger state is
// refused instead of honored with memory.
func (c *Config) maxPeerBudget() int {
	return 4*c.Graph.NumNodes() + 1024
}

// pricingKind classifies the pricing scheme for the config digest and the
// snapshot's pricing-state framing.
func (s *swarm) pricingKind() uint64 {
	switch s.cfg.Pricing.(type) {
	case credit.UniformPricing:
		return 1
	case credit.PerPeerPricing:
		return 2
	case *credit.PoissonPricing:
		return 3
	case *credit.LinearPricing:
		return 4
	default:
		return 5
	}
}

// stateDigest folds the streaming-level configuration that shapes
// serialized state into one word (the kernel digest covers the shared
// scalars), so a restore against a differently-configured swarm is refused
// with a clear error instead of producing silently divergent output.
func (s *swarm) stateDigest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime
		}
	}
	c := &s.cfg
	put(uint64(c.StreamRate))
	put(uint64(c.DelaySeconds))
	put(uint64(c.UploadCap))
	put(uint64(c.DownloadCap))
	put(uint64(c.SourceSeeds))
	put(uint64(c.ProbesPerNeighbor))
	put(uint64(c.MeasureStartSeconds))
	put(uint64(c.HorizonSeconds))
	put(uint64(len(c.UploadCapOf)))
	put(uint64(len(c.Departures)))
	put(uint64(len(c.Policies)))
	put(math.Float64bits(c.PolicyEpoch))
	put(s.pricingKind())
	return h
}

// Snapshot serializes the complete run state — kernel (scheduler, RNG,
// ledger, peers, metrics, graph, policies) and the swarm's per-peer trading
// state — as a checkpoint chain base: a versioned, checksummed link whose
// header id digests the configuration and the event index. Snapshotting is
// read-only, and a snapshot of a restored run at the same event index is
// byte-identical to one taken by the uninterrupted run.
func (m *Sim) Snapshot() []byte {
	s := m.s
	n := len(s.peers)
	w := snapshot.NewWriter(64 + 96*n + 4*len(s.rings) + 4*len(s.lists))
	w.LinkHeader(snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: s.k.LinkID(s.stateDigest())})
	s.k.SaveState(w)

	w.Section("streaming")
	w.U64(s.stateDigest())
	spent := make([]int64, n)
	upUsed := make([]int32, n)
	downUsed := make([]int32, n)
	listLen := make([]int32, n)
	haveCount := make([]int32, n)
	bought := make([]int32, n)
	played := make([]int32, n)
	missed := make([]int32, n)
	upCap := make([]int32, n)
	alive := make([]uint8, n)
	for i := range s.peers {
		p := &s.peers[i]
		spent[i] = p.spent
		upUsed[i] = p.upUsed
		downUsed[i] = p.downUsed
		listLen[i] = p.listLen
		haveCount[i] = p.haveCount
		bought[i] = p.bought
		played[i] = p.played
		missed[i] = p.missed
		upCap[i] = p.upCap
		if p.alive {
			alive[i] = 1
		}
	}
	w.I64s(spent)
	w.I32s(upUsed)
	w.I32s(downUsed)
	w.I32s(listLen)
	w.I32s(haveCount)
	w.I32s(bought)
	w.I32s(played)
	w.I32s(missed)
	w.I32s(upCap)
	w.U8s(alive)
	w.I32s(s.rings)
	w.I32s(s.lists)
	w.Bool(s.useFresh)
	if s.useFresh {
		w.I32s(s.fresh)
	}
	w.U64s(s.empty)
	w.U64s(s.busy)
	w.U64s(s.full)
	w.U64s(s.dead)
	w.I32s(s.order)
	w.U64(s.res.ChunksTraded)
	w.U64(s.res.ChunksSeeded)
	w.U64(s.res.Stalls)
	w.U64(s.res.Departures)
	switch pr := s.pricing.(type) {
	case *credit.PoissonPricing:
		pr.SaveState(w)
	case *credit.LinearPricing:
		pr.SaveState(w)
	}
	return w.Finish()
}

// RestoreChain reconstructs a run from a checkpoint chain: the one base
// link a Sim.Snapshot produced. cfg must describe the original run
// exactly (same scalars, same policy pipeline, same pricing scheme, same
// graph). Continue the run with Step/Run (not Start).
func RestoreChain(cfg Config, chain [][]byte) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSwarm(cfg)
	if err != nil {
		return nil, err
	}
	r, err := sim.OpenBase(chain)
	if err == nil {
		err = s.load(r)
	}
	if err == nil {
		err = r.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("streaming: restore: %w", err)
	}
	return &Sim{s: s}, nil
}

// load replaces the freshly-constructed swarm's mutable state with the
// snapshot's. Construction-derived state (ids, neighbor slab, ring
// geometry, prices, departure schedule) is already identical by
// determinism of newSwarm.
func (s *swarm) load(r *snapshot.Reader) error {
	budget := s.cfg.maxPeerBudget()
	if err := s.k.LoadState(r, budget); err != nil {
		return err
	}

	r.Section("streaming")
	digest := r.U64()
	if r.Err() == nil && digest != s.stateDigest() {
		return fmt.Errorf("snapshot streaming digest %016x != this config's %016x — restoring into a different configuration", digest, s.stateDigest())
	}
	n := len(s.peers)
	spent := r.I64s(budget)
	upUsed := r.I32s(budget)
	downUsed := r.I32s(budget)
	listLen := r.I32s(budget)
	haveCount := r.I32s(budget)
	bought := r.I32s(budget)
	played := r.I32s(budget)
	missed := r.I32s(budget)
	upCap := r.I32s(budget)
	alive := r.U8s(budget)
	if err := r.Err(); err != nil {
		return err
	}
	if len(spent) != n || len(upUsed) != n || len(downUsed) != n ||
		len(listLen) != n || len(haveCount) != n || len(bought) != n ||
		len(played) != n || len(missed) != n || len(upCap) != n || len(alive) != n {
		return fmt.Errorf("peer state field lengths disagree with the %d-peer swarm", n)
	}
	for i := range s.peers {
		p := &s.peers[i]
		if ll := listLen[i]; ll < 0 || int(ll) > s.listCap {
			return fmt.Errorf("peer %d list length %d outside [0, %d]", i, ll, s.listCap)
		}
		p.spent = spent[i]
		p.upUsed = upUsed[i]
		p.downUsed = downUsed[i]
		p.listLen = listLen[i]
		p.haveCount = haveCount[i]
		p.bought = bought[i]
		p.played = played[i]
		p.missed = missed[i]
		p.upCap = upCap[i]
		p.alive = alive[i] != 0
	}
	rings := r.I32s(0)
	lists := r.I32s(0)
	useFresh := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if len(rings) != len(s.rings) || len(lists) != len(s.lists) {
		return fmt.Errorf("ring/list slabs hold %d/%d entries, want %d/%d", len(rings), len(lists), len(s.rings), len(s.lists))
	}
	if useFresh != s.useFresh {
		return fmt.Errorf("snapshot fresh-mirror presence %v but this config derives %v", useFresh, s.useFresh)
	}
	copy(s.rings, rings)
	copy(s.lists, lists)
	if s.useFresh {
		fresh := r.I32s(0)
		if err := r.Err(); err != nil {
			return err
		}
		if len(fresh) != len(s.fresh) {
			return fmt.Errorf("fresh mirror holds %d entries, want %d", len(fresh), len(s.fresh))
		}
		copy(s.fresh, fresh)
	}
	words := (n + 63) / 64
	for _, bs := range []*[]uint64{&s.empty, &s.busy, &s.full, &s.dead} {
		v := r.U64s(words + 1)
		if r.Err() != nil {
			return r.Err()
		}
		if len(v) != words {
			return fmt.Errorf("skip bitset holds %d words, want %d", len(v), words)
		}
		copy(*bs, v)
	}
	// The empty bitset mirrors the buffer lists exactly (every path that
	// empties or fills a list flips the bit), and the trading pass samples
	// the list of every seller whose bit is clear.
	for i := range s.peers {
		if bitGet(s.empty, int32(i)) != (s.peers[i].listLen == 0) {
			return fmt.Errorf("peer %d's empty bit disagrees with its %d-entry buffer list", i, s.peers[i].listLen)
		}
	}
	order := r.I32s(budget)
	if err := r.Err(); err != nil {
		return err
	}
	if len(order) != n {
		return fmt.Errorf("buyer order holds %d entries, want %d", len(order), n)
	}
	// The buyer order starts as the identity and is only ever shuffled,
	// so it is a permutation of the peer slots.
	seen := make([]bool, n)
	for _, px := range order {
		if px < 0 || int(px) >= n || seen[px] {
			return fmt.Errorf("buyer order entry %d is not a peer slot of the %d-peer swarm, or repeats", px, n)
		}
		seen[px] = true
	}
	copy(s.order, order)
	s.res.ChunksTraded = r.U64()
	s.res.ChunksSeeded = r.U64()
	s.res.Stalls = r.U64()
	s.res.Departures = r.U64()
	switch pr := s.pricing.(type) {
	case *credit.PoissonPricing:
		pr.LoadState(r)
	case *credit.LinearPricing:
		pr.LoadState(r)
	}
	return r.Err()
}
