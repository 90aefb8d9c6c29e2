package market

import (
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/sim"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/xrand"
)

// Sim is a stepwise handle over one market simulation, exposing the run
// phases Run fuses — construction, start, event-by-event stepping, snapshot
// and finish — so drivers can checkpoint mid-run, crash at an arbitrary
// event index, and resume byte-identically. Run(cfg) is implemented on top
// of this handle and is byte-identical to driving it manually.
type Sim struct {
	s *simulation
}

// NewSim validates cfg and builds a simulation ready to Start.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

// Kernel exposes the underlying simulation kernel (fault injection hooks,
// audits, metrics).
func (m *Sim) Kernel() *sim.Kernel { return m.s.k }

// Start arms the initial events. Call exactly once, and not on a restored
// Sim (its pending set already holds every armed event).
func (m *Sim) Start() error {
	if m.s.cfg.Churn == nil {
		// A closed overlay never dirties a neighborhood, so build every
		// routing neighborhood once, carved from one shared slab (identical
		// contents to the lazy path; see Run).
		m.s.prebuildNeighborhoods()
	}
	return m.s.k.Start()
}

// Step delivers the next pending event within the horizon, reporting
// whether one fired.
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

// Run executes the simulation described by cfg.
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
// perform: the initial population plus the theoretical churn-arrival
// maximum, with headroom. A snapshot declaring larger state is refused
// instead of honored with memory.
func (c *Config) maxPeerBudget() int {
	n := c.Graph.NumNodes()
	if c.Churn != nil {
		rate := c.Churn.ArrivalRate
		if c.Churn.MaxRate > rate {
			rate = c.Churn.MaxRate
		}
		n += int(math.Ceil(rate*c.Horizon)) + 1
	}
	return 4*n + 1024
}

// stateDigest folds the market-level configuration that shapes serialized
// state into one word (the kernel digest covers the shared scalars), so a
// restore against a differently-configured market is refused with a clear
// error instead of producing silently divergent output.
func (s *simulation) stateDigest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime
		}
	}
	c := &s.cfg
	put(uint64(c.Routing))
	var flags uint64
	if s.fast {
		flags |= 1
	}
	if c.Spending != nil {
		flags |= 2
	}
	if c.Churn != nil {
		flags |= 16
	}
	if c.JoinMu != nil {
		flags |= 32
	}
	put(flags)
	put(math.Float64bits(c.DefaultMu))
	put(math.Float64bits(c.FreeRiderFrac))
	put(math.Float64bits(c.AvailabilityTau))
	put(math.Float64bits(c.AvailabilityFloor))
	put(math.Float64bits(c.MeasureStart))
	put(uint64(len(c.BaseMu)))
	put(uint64(len(c.Policies)))
	return h
}

// Snapshot serializes the complete run state — kernel (scheduler, RNG,
// ledger, peers, metrics, graph, policies) and the market workload's
// per-peer spending state — as a checkpoint chain base: a versioned,
// checksummed link whose header id digests the configuration and the event
// index. Snapshotting is read-only: the run continues unperturbed, and a
// snapshot of a restored run at the same event index is byte-identical to
// one taken by the uninterrupted run.
func (m *Sim) Snapshot() []byte {
	s := m.s
	w := snapshot.NewWriter(64 + 96*len(s.ws))
	w.LinkHeader(snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: s.k.LinkID(s.stateDigest())})
	s.k.SaveState(w)

	w.Section("market")
	w.U64(s.stateDigest())
	n := len(s.ws)
	baseMu := make([]float64, n)
	pending := make([]uint64, n)
	spends := make([]uint32, n)
	flags := make([]uint8, n)
	nbrCnt := make([]int32, n)
	total := 0
	for i := range s.ws {
		p := &s.ws[i]
		baseMu[i] = p.baseMu
		pending[i] = p.pending.Pack()
		spends[i] = p.spends
		flags[i] = p.flags
		nbrCnt[i] = int32(len(p.nbrs))
		total += len(p.nbrs)
	}
	flat := make([]int32, 0, total)
	for i := range s.ws {
		flat = append(flat, s.ws[i].nbrs...)
	}
	w.F64s(baseMu)
	w.U64s(pending)
	w.U32s(spends)
	w.U8s(flags)
	w.I32s(nbrCnt)
	w.I32s(flat)

	if s.degw != nil {
		degCnt := make([]int32, len(s.degw))
		dTotal := 0
		for i := range s.degw {
			degCnt[i] = int32(len(s.degw[i]))
			dTotal += len(s.degw[i])
		}
		dflat := make([]float64, 0, dTotal)
		for i := range s.degw {
			dflat = append(dflat, s.degw[i]...)
		}
		w.I32s(degCnt)
		w.F64s(dflat)
	}
	if s.invs != nil {
		w.F64s(s.invs)
		w.F64s(s.invAts)
	}
	if s.fast {
		has := make([]uint8, len(s.fen))
		for i, f := range s.fen {
			if f != nil {
				has[i] = 1
			}
		}
		w.U8s(has)
		for _, f := range s.fen {
			if f != nil {
				f.SaveState(w)
			}
		}
	}
	w.U64(s.rebuilds)
	w.U64(s.res.SpendEvents)
	return w.Finish()
}

// RestoreChain reconstructs a run from a checkpoint chain: the one base
// link a Sim.Snapshot produced. cfg must describe the original run
// exactly — same scalars, same policy pipeline, and a Graph in its
// pre-run state (churn-mutated topology is restored from the snapshot).
// The decoded state is vetted before the run may continue. Continue the
// run with Step/Run (not Start).
func RestoreChain(cfg Config, chain [][]byte) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSimulation(cfg)
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
	if err == nil {
		err = s.checkRestored()
	}
	if err != nil {
		return nil, fmt.Errorf("market: restore: %w", err)
	}
	return &Sim{s: s}, nil
}

// load replaces the freshly-constructed simulation's mutable state with the
// snapshot's.
func (s *simulation) load(r *snapshot.Reader) error {
	budget := s.cfg.maxPeerBudget()
	if err := s.k.LoadState(r, budget); err != nil {
		return err
	}

	r.Section("market")
	digest := r.U64()
	if r.Err() == nil && digest != s.stateDigest() {
		return fmt.Errorf("snapshot market digest %016x != this config's %016x — restoring into a different configuration", digest, s.stateDigest())
	}
	baseMu := r.F64s(budget)
	pending := r.U64s(budget)
	spends := r.U32s(budget)
	flags := r.U8s(budget)
	nbrCnt := r.I32s(budget)
	flat := r.I32s(0)
	if err := r.Err(); err != nil {
		return err
	}
	n := len(baseMu)
	if len(pending) != n || len(spends) != n || len(flags) != n || len(nbrCnt) != n {
		return fmt.Errorf("peer state field lengths disagree (%d/%d/%d/%d/%d)", n, len(pending), len(spends), len(flags), len(nbrCnt))
	}
	if n != s.k.Peers.Len() {
		return fmt.Errorf("snapshot holds %d peer records, the restored kernel %d", n, s.k.Peers.Len())
	}
	var want int64
	for _, c := range nbrCnt {
		if c < 0 {
			return fmt.Errorf("negative neighbor count %d", c)
		}
		want += int64(c)
	}
	if want != int64(len(flat)) {
		return fmt.Errorf("neighbor counts sum to %d but the slab holds %d entries", want, len(flat))
	}
	s.ws = make([]wpeer, n)
	off := 0
	for i := range s.ws {
		c := int(nbrCnt[i])
		s.ws[i] = wpeer{
			baseMu:  baseMu[i],
			pending: des.UnpackHandle(pending[i]),
			nbrs:    flat[off : off+c : off+c],
			spends:  spends[i],
			flags:   flags[i],
		}
		off += c
	}

	if s.degw != nil {
		degCnt := r.I32s(budget)
		dflat := r.F64s(0)
		if err := r.Err(); err != nil {
			return err
		}
		if len(degCnt) != n {
			return fmt.Errorf("degree-weight counts hold %d entries, want %d", len(degCnt), n)
		}
		var dwant int64
		for _, c := range degCnt {
			if c < 0 {
				return fmt.Errorf("negative degree-weight count %d", c)
			}
			dwant += int64(c)
		}
		if dwant != int64(len(dflat)) {
			return fmt.Errorf("degree-weight counts sum to %d but the slab holds %d entries", dwant, len(dflat))
		}
		s.degw = make([][]float64, n)
		doff := 0
		for i := range s.degw {
			c := int(degCnt[i])
			s.degw[i] = dflat[doff : doff+c : doff+c]
			doff += c
		}
	}
	if s.invs != nil {
		s.invs = r.F64s(budget)
		s.invAts = r.F64s(budget)
		if err := r.Err(); err != nil {
			return err
		}
		if len(s.invs) != n || len(s.invAts) != n {
			return fmt.Errorf("inventory vectors hold %d/%d entries, want %d", len(s.invs), len(s.invAts), n)
		}
	}
	if s.fast {
		has := r.U8s(budget)
		if err := r.Err(); err != nil {
			return err
		}
		if len(has) != n {
			return fmt.Errorf("sampler-index presence vector holds %d entries, want %d", len(has), n)
		}
		s.fen = make([]*xrand.Fenwick, n)
		for i, h := range has {
			if h != 0 {
				f := &xrand.Fenwick{}
				if err := f.LoadState(r, budget); err != nil {
					return err
				}
				s.fen[i] = f
			}
		}
	}
	s.rebuilds = r.U64()
	s.res.SpendEvents = r.U64()
	return r.Err()
}

// checkRestored vets the decoded workload state against the engine
// invariants that hold at every event boundary, so a checksum-valid but
// crafted or mis-encoded checkpoint is refused here instead of indexing
// out of range mid-run. Each check is exact: a state the engine can reach
// always passes.
func (s *simulation) checkRestored() error {
	n := int32(len(s.ws))
	// Cached neighbourhoods hold peer-slot indices taken from the peer
	// table, which never shrinks. A neighbourhood without pfDirty is the
	// one routing samples from, so its weight caches match it entry for
	// entry: exact degree weights (rebuilt together with it, and only
	// ever marked dirty rather than spliced) and, without pfFenStale, a
	// built Fenwick index (every splice marks it stale).
	for px := range s.ws {
		p := &s.ws[px]
		for _, q := range p.nbrs {
			if q < 0 || q >= n {
				return fmt.Errorf("peer slot %d caches neighbour slot %d outside the %d-slot peer table", px, q, n)
			}
		}
		if p.flags&pfDirty != 0 {
			continue
		}
		if s.degw != nil && len(s.degw[px]) != len(p.nbrs) {
			return fmt.Errorf("peer slot %d caches %d degree weights for %d neighbours", px, len(s.degw[px]), len(p.nbrs))
		}
		if s.fast && s.fen[px] != nil && p.flags&pfFenStale == 0 && s.fen[px].Len() != len(p.nbrs) {
			return fmt.Errorf("peer slot %d's sampler index covers %d neighbours, its cache %d", px, s.fen[px].Len(), len(p.nbrs))
		}
	}
	// Only scheduleSpend queues a spend event: it records the handle in
	// the peer's pending field and clears pfIdle, a peer has at most one
	// spend queued, and departure cancels it. So every live queued spend
	// event belongs to a live peer of the payload's generation, is named
	// by that peer's handle, and the peer is not idle. The converse is not
	// checked: an idle peer's handle is stale, and so is a busy peer's
	// when fault injection dropped its event.
	named := 0
	err := s.k.Sched.EachQueued(func(ev des.Event, h des.Handle, live bool) error {
		if !live || ev.Kind != evSpend {
			return nil
		}
		px := ev.Actor
		if !s.k.Peers.Current(px, uint32(ev.Payload)) {
			return fmt.Errorf("a spend event is queued for peer slot %d generation %d, which is not live", px, ev.Payload)
		}
		if p := &s.ws[px]; p.pending != h || p.flags&pfIdle != 0 {
			return fmt.Errorf("peer slot %d's queued spend event %#x is not named by its pending handle %#x, or the peer is idle", px, h.Pack(), p.pending.Pack())
		}
		named++
		return nil
	})
	if err != nil {
		return err
	}
	// Handles are only ever spend handles, so one that still names a
	// queued event names its holder's own, already counted above.
	holders := 0
	for px := range s.ws {
		if !s.k.Sched.Cancelled(s.ws[px].pending) {
			holders++
		}
	}
	if holders != named {
		return fmt.Errorf("%d pending handles name queued events, but only %d spend events are queued under their holders", holders, named)
	}
	return nil
}
