// Package market simulates a credit-based P2P content market at credit
// granularity — the discrete-event counterpart of the paper's Jackson
// queueing network (Table I). Each peer is a queue of credits: a solvent
// peer spends one credit after an exponential service time, routed to a
// neighbor chosen by the routing policy (the transfer matrix P); bankrupt
// peers idle until income arrives.
//
// The simulator supports every mechanism the paper evaluates: taxation with
// redistribution (Sec. VI-C), wealth-coupled dynamic spending rates
// (Sec. VI-D), peer churn turning the closed network into an open one
// (Sec. VI-E), time-varying arrival rates (flash crowds, diurnal cycles),
// and free-rider populations that consume without serving. It reproduces
// Figs. 5–11 and the scenario presets built on top of it.
//
// The market is a sim.Workload: the shared kernel (internal/sim) owns the
// dense peer table, the churn process, the ledger binding, the metrics
// pipeline and the policy engine that runs taxation and injection; this
// package owns only the spending dynamics — routing and the per-peer
// spending state. State stays flat and on a memory diet for million-peer
// runs: the hot per-peer record is 48 bytes (bit-packed flags, an int32
// neighbor list), routing-mode state (degree weight caches, availability
// inventories) lives in side arrays allocated only for the mode that
// needs them, and every collection iterated during the run is a
// dense slice walked in index order, so equal seeds give byte-identical
// results.
package market

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/credit"
	"creditp2p/internal/des"
	"creditp2p/internal/policy"
	"creditp2p/internal/sim"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// collectorID is the ledger account holding taxed credits awaiting
// redistribution. Overlay node ids are non-negative, so -1 never collides.
const collectorID = -1

// ErrBadConfig is returned for invalid simulation configurations.
var ErrBadConfig = errors.New("market: invalid config")

// RouteAvailability's inventory model: availabilityTau is the decay time
// constant (seconds) of a peer's chunk inventory, and availabilityFloor
// the minimum effective inventory, so that newcomers and long-bankrupt
// peers can still sell occasionally.
const (
	availabilityTau   = 100.0
	availabilityFloor = 0.05
)

// Routing selects how a spending peer picks the neighbor to buy from,
// mirroring core.RoutingPolicy at simulation level.
type Routing int

const (
	// RouteUniform buys uniformly from neighbors (streaming with
	// network-coded, equally useful chunks — Sec. V-C1).
	RouteUniform Routing = iota + 1
	// RouteDegreeWeighted buys proportionally to neighbor degree, a static
	// proxy for chunk availability (asymmetric markets).
	RouteDegreeWeighted
	// RouteAvailability buys proportionally to each neighbor's live chunk
	// inventory — an exponentially decaying count of the neighbor's own
	// recent purchases. This reproduces the paper's protocol coupling
	// ("credit transfer probabilities to neighbors are decided by their
	// data chunk availability during streaming", Sec. VI): a bankrupt peer
	// stops buying, its inventory decays, and its income dries up — the
	// poverty trap that taxation and redistribution counteract.
	RouteAvailability
)

// ChurnConfig enables peer dynamics: Poisson arrivals, exponential
// lifespans, departures that burn the departing peer's credits
// (Sec. VI-E).
type ChurnConfig struct {
	// ArrivalRate is the peer arrival rate in peers/second.
	ArrivalRate float64
	// MeanLifespan is the mean of the exponential peer lifetime in seconds.
	MeanLifespan float64
	// AttachDegree is the number of edges a joining peer creates.
	AttachDegree int
	// Preferential selects degree-proportional attachment (keeps the
	// overlay scale-free); false attaches uniformly.
	Preferential bool
	// RateAt, when non-nil, makes the arrival rate time-varying — the
	// flash-crowd and diurnal-churn regimes. Arrivals are generated by
	// thinning against the MaxRate envelope, so RateAt must never exceed
	// MaxRate. Nil keeps the constant-rate process (byte-identical to
	// configurations predating this hook).
	RateAt func(t float64) float64
	// MaxRate is the thinning envelope for RateAt.
	MaxRate float64
	// EnvelopeAt optionally supplies a tighter piecewise-constant envelope
	// (an upper bound of RateAt holding from t until the returned
	// boundary); see sim.Churn.EnvelopeAt.
	EnvelopeAt func(t float64) (rate, until float64)
	// FastAttach joins peers through topology.AttachFast — O(degree) per
	// join instead of O(population), required for heavy churn at 100k+
	// peers. Its RNG draws differ from the exact samplers', so flipping it
	// changes same-seed outputs.
	FastAttach bool
}

// Config describes one market simulation.
type Config struct {
	// Graph is the initial overlay. It is mutated during churn; pass a
	// Clone if the caller needs it preserved.
	Graph *topology.Graph
	// InitialWealth is the per-peer credit endowment c.
	InitialWealth int64
	// DefaultMu is the base spending rate used for peers absent from BaseMu.
	DefaultMu float64
	// BaseMu optionally overrides per-peer base spending rates mu_i.
	BaseMu map[int]float64
	// Routing picks the purchase-splitting policy. Zero means RouteUniform.
	Routing Routing
	// Spending maps wealth to instantaneous spending rate; nil means the
	// fixed baseline.
	Spending credit.SpendingPolicy
	// Policies are the economic policy stages run by the kernel's policy
	// engine, in order: Sec. VI-C taxation (IncomeTax + Redistribute),
	// periodic injection (Injection), adaptive taxation, demurrage,
	// newcomer subsidies, ...
	Policies []policy.Policy
	// PolicyEpoch is the engine's epoch period in seconds for epoch-driven
	// stages (injection rounds, demurrage sweeps, adaptive-controller
	// steps). Zero disables epochs.
	PolicyEpoch float64
	// Churn enables open-network dynamics; nil keeps the network closed.
	Churn *ChurnConfig
	// JoinMu optionally samples the base spending rate of peers joining
	// under churn; nil uses BaseMu/DefaultMu.
	JoinMu func(r *xrand.RNG) float64
	// FreeRiderFrac is the probability that a joining peer (initial or
	// churn) is a free-rider: it consumes — spends credits on neighbors —
	// but never serves, so no neighbor ever buys from it and its only
	// income is redistribution or injection. Zero (the default) draws no
	// randomness and disables the mechanism.
	FreeRiderFrac float64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// SampleEvery is the Gini sampling interval; zero means Horizon/100.
	SampleEvery float64
	// SnapshotTimes lists times at which full sorted wealth snapshots are
	// recorded (Figs. 5–6).
	SnapshotTimes []float64
	// MeasureStart is when the spending-rate measurement window opens;
	// zero means Horizon/2.
	MeasureStart float64
	// Seed drives all randomness.
	Seed int64
}

func (c *Config) validate() error {
	if c.Graph == nil || c.Graph.NumNodes() == 0 {
		return fmt.Errorf("%w: empty topology", ErrBadConfig)
	}
	if c.InitialWealth < 0 {
		return fmt.Errorf("%w: initial wealth %d", ErrBadConfig, c.InitialWealth)
	}
	if c.DefaultMu <= 0 {
		return fmt.Errorf("%w: default mu %v", ErrBadConfig, c.DefaultMu)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %v", ErrBadConfig, c.Horizon)
	}
	if c.Routing == 0 {
		c.Routing = RouteUniform
	}
	switch c.Routing {
	case RouteUniform, RouteDegreeWeighted, RouteAvailability:
	default:
		return fmt.Errorf("%w: routing %d", ErrBadConfig, c.Routing)
	}
	if c.FreeRiderFrac < 0 || c.FreeRiderFrac >= 1 || math.IsNaN(c.FreeRiderFrac) {
		return fmt.Errorf("%w: free-rider fraction %v", ErrBadConfig, c.FreeRiderFrac)
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = c.Horizon / 100
	}
	for _, at := range c.SnapshotTimes {
		if at < 0 || at > c.Horizon {
			return fmt.Errorf("%w: snapshot time %v outside [0, %v]", ErrBadConfig, at, c.Horizon)
		}
	}
	if c.MeasureStart <= 0 || c.MeasureStart >= c.Horizon {
		c.MeasureStart = c.Horizon / 2
	}
	if c.Churn != nil {
		ch := c.Churn
		if ch.ArrivalRate < 0 || ch.MeanLifespan <= 0 || ch.AttachDegree < 1 {
			return fmt.Errorf("%w: churn %+v", ErrBadConfig, *ch)
		}
		if ch.RateAt != nil && ch.EnvelopeAt == nil && (ch.MaxRate <= 0 || math.IsNaN(ch.MaxRate)) {
			return fmt.Errorf("%w: churn RateAt needs a positive MaxRate envelope", ErrBadConfig)
		}
		if ch.EnvelopeAt != nil && ch.RateAt == nil {
			return fmt.Errorf("%w: churn EnvelopeAt without RateAt", ErrBadConfig)
		}
	}
	if c.PolicyEpoch < 0 || math.IsNaN(c.PolicyEpoch) {
		return fmt.Errorf("%w: policy epoch %v", ErrBadConfig, c.PolicyEpoch)
	}
	for i, p := range c.Policies {
		if p == nil {
			return fmt.Errorf("%w: nil policy at pipeline position %d", ErrBadConfig, i)
		}
	}
	return nil
}

// Snapshot is a full sorted wealth distribution at one instant.
type Snapshot = sim.Snapshot

// Result collects the outputs of one run.
type Result struct {
	// Gini is the wealth-Gini time series sampled at SampleEvery.
	Gini *trace.Series
	// Population is the peer-count time series (interesting under churn).
	Population *trace.Series
	// Snapshots are the requested sorted wealth distributions.
	Snapshots []Snapshot
	// FinalWealth maps surviving peer ids to balances.
	FinalWealth map[int]int64
	// FinalGini is the Gini of FinalWealth.
	FinalGini float64
	// SpendingRate maps surviving peer ids to measured credit spending
	// rates (spends/second) over the measurement window — Fig. 1's metric.
	SpendingRate map[int]float64
	// SpendEvents counts credit transfers executed.
	SpendEvents uint64
	// Joins and Departures count churn events.
	Joins, Departures uint64
	// TaxCollected and TaxRedistributed report taxation activity.
	TaxCollected, TaxRedistributed int64
	// Injected counts credits minted by the injection policy.
	Injected int64
	// Supply is the money-supply time series (constant when the market is
	// closed; growing under injection, drifting under churn).
	Supply *trace.Series
}

// Workload event kinds on the kernel. Spend events carry the peer's
// generation counter in the payload so that events scheduled for a departed
// peer are inert even if the peer slot has been recycled (the kernel's
// PeerTable.Current check). Periodic injection, once a second workload
// event, is now a policy-engine stage driven by the kernel's KindPolicy
// epoch.
const (
	evSpend uint16 = sim.KindUser + iota
)

// wpeer flag bits (bit-packed so the hot record stays one cache line).
const (
	// pfIdle marks a peer with no armed spend event (bankrupt or rate 0).
	pfIdle uint8 = 1 << iota
	// pfDirty marks the cached neighborhood stale (churn touched it).
	pfDirty
	// pfFreeRider marks a peer that consumes but never serves: excluded
	// from every neighbor's routing candidates.
	pfFreeRider
)

// wpeer is the market's hot per-peer workload state, parallel to the
// kernel's dense peer slab and recycled with it: 48 bytes, so a spend
// touches one cache line of workload state. Routing-mode extras (degree
// weight caches, availability inventories) live in side arrays
// of the simulation, allocated only for the mode in use. The kernel-owned
// identity fields (id, ledger slot, generation, liveness) live in
// sim.PeerTable.
type wpeer struct {
	baseMu  float64
	pending des.Handle
	// nbrs is the cached routing neighborhood as peer indices in ascending
	// overlay-id order; rebuilt when pfDirty.
	nbrs []int32
	// spends counts transfers initiated inside the measurement window.
	spends uint32
	flags  uint8
}

type simulation struct {
	cfg Config
	g   *topology.Graph
	k   *sim.Kernel
	// ws is the workload peer state, indexed by the kernel's dense px.
	ws []wpeer
	// degw caches the degree-weighted routing weights, parallel to
	// ws[px].nbrs; nil unless Routing == RouteDegreeWeighted.
	degw [][]float64
	// wscratch is the shared availability-weight scratch vector (filled
	// and consumed within one pickNeighbor call).
	wscratch []float64
	// invs/invAts hold the availability inventories: invs[px] is the
	// inventory valid at time invAts[px] (lazy exponential decay). Nil
	// unless Routing == RouteAvailability.
	invs, invAts []float64
	// collector is the ledger slot of the taxation pot — the policy
	// engine's shared pot account.
	collector int32
	// engine is the economic policy pipeline (nil when the run declares no
	// taxation, injection or extra policies).
	engine *policy.Engine
	res    *Result
}

var _ sim.Workload = (*simulation)(nil)

// newSimulation builds the kernel, opens the taxation pot and joins the
// initial population, leaving the run ready to Start.
func newSimulation(cfg Config) (*simulation, error) {
	n := cfg.Graph.NumNodes()
	s := &simulation{cfg: cfg, g: cfg.Graph, res: &Result{
		FinalWealth:  make(map[int]int64, n),
		SpendingRate: make(map[int]float64, n),
	}}
	switch cfg.Routing {
	case RouteDegreeWeighted:
		s.degw = make([][]float64, 0, n)
	case RouteAvailability:
		s.invs = make([]float64, 0, n)
		s.invAts = make([]float64, 0, n)
	}
	kcfg := sim.Config{
		Graph:         cfg.Graph,
		InitialWealth: cfg.InitialWealth,
		Horizon:       cfg.Horizon,
		Seed:          cfg.Seed,
		SampleEvery:   cfg.SampleEvery,
		SnapshotTimes: cfg.SnapshotTimes,
	}
	if cfg.Churn != nil {
		kcfg.Churn = &sim.Churn{
			ArrivalRate:  cfg.Churn.ArrivalRate,
			MeanLifespan: cfg.Churn.MeanLifespan,
			AttachDegree: cfg.Churn.AttachDegree,
			Preferential: cfg.Churn.Preferential,
			RateAt:       cfg.Churn.RateAt,
			MaxRate:      cfg.Churn.MaxRate,
			EnvelopeAt:   cfg.Churn.EnvelopeAt,
			FastAttach:   cfg.Churn.FastAttach,
		}
	}
	k, err := sim.NewKernel(kcfg, s)
	if err != nil {
		return nil, err
	}
	s.k = k
	collector, err := k.OpenExternal(collectorID, 0)
	if err != nil {
		return nil, err
	}
	s.collector = collector
	// The engine binds before the initial population joins so join-hook
	// policies see every peer.
	if len(cfg.Policies) > 0 {
		s.engine = policy.NewEngine(cfg.Policies...)
		if err := k.BindPolicies(s.engine, s.collector, cfg.PolicyEpoch); err != nil {
			return nil, err
		}
	}
	for _, id := range s.g.Nodes() {
		if _, err := k.Join(id); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OnEvent routes a workload event to its handler (sim.Workload).
func (s *simulation) OnEvent(ev des.Event) {
	if ev.Kind == evSpend {
		s.spend(ev.Actor, uint32(ev.Payload))
	}
}

// OnCredit implements sim.CreditWaker: a policy (redistribution, subsidy,
// injection) just credited the peer, so an idle — bankrupt — spender
// re-arms its next spend.
func (s *simulation) OnCredit(px int32) {
	p := &s.ws[px]
	if p.flags&pfIdle != 0 {
		if b := s.k.Balance(px); b > 0 {
			s.scheduleSpend(px, p, b)
		}
	}
}

// Sample implements sim.Workload; the kernel's pipeline already records
// everything the market measures periodically.
func (s *simulation) Sample(float64) {}

func (s *simulation) muOf(id int) float64 {
	if mu, ok := s.cfg.BaseMu[id]; ok {
		return mu
	}
	return s.cfg.DefaultMu
}

// OnJoin installs the workload state of a freshly interned peer and arms
// its first spend (sim.Workload). Mid-run joins — churn arrivals — sample
// JoinMu and update the neighborhood caches around the attach point.
func (s *simulation) OnJoin(px int32) error {
	id := int(s.k.Peers.At(px).ID)
	mu := s.muOf(id)
	if s.k.Running() && s.cfg.JoinMu != nil {
		mu = s.cfg.JoinMu(s.k.RNG)
	}
	if mu <= 0 || math.IsNaN(mu) {
		return fmt.Errorf("%w: mu %v for peer %d", ErrBadConfig, mu, id)
	}
	freeRider := false
	if s.cfg.FreeRiderFrac > 0 {
		freeRider = s.k.RNG.Bernoulli(s.cfg.FreeRiderFrac)
	}
	if int(px) >= len(s.ws) {
		s.ws = append(s.ws, wpeer{})
		if s.degw != nil {
			s.degw = append(s.degw, nil)
		}
		if s.invs != nil {
			s.invs = append(s.invs, 0)
			s.invAts = append(s.invAts, 0)
		}
	}
	p := &s.ws[px]
	*p = wpeer{
		flags:  pfIdle | pfDirty,
		baseMu: mu,
		nbrs:   p.nbrs[:0],
	}
	if freeRider {
		p.flags |= pfFreeRider
	}
	if s.degw != nil {
		s.degw[px] = s.degw[px][:0]
	}
	if s.invs != nil {
		s.invs[px], s.invAts[px] = 0, 0
	}
	if s.cfg.InitialWealth > 0 {
		s.scheduleSpend(px, p, s.cfg.InitialWealth)
	}
	if s.k.Running() {
		s.attachNeighborhoods(px, id)
	}
	return nil
}

// OnDepart cancels the departing peer's pending spend and splices it out of
// (or invalidates) the cached neighborhoods around it (sim.Workload). The
// kernel handles the slot release, the generation bump, the credit burn and
// the topology removal.
func (s *simulation) OnDepart(px int32) {
	s.k.Sched.Cancel(s.ws[px].pending)
	s.detachNeighborhoods(px, int(s.k.Peers.At(px).ID))
}

// attachNeighborhoods splices a mid-run joiner into the cached routing
// neighborhoods around it. Uniform and availability routing maintain the
// caches incrementally — the spliced lists are exactly what a full rebuild
// would produce (live selling neighbors in ascending id order), without
// the O(degree^2) rebuild train every churn event used to trigger across
// the neighborhood. Degree-weighted routing keeps the dirty-flag rebuild,
// because a join also shifts the cached degree weights of peers the
// incremental splice never visits.
func (s *simulation) attachNeighborhoods(px int32, id int) {
	if s.cfg.Routing == RouteDegreeWeighted {
		s.markNeighborhoodDirty(id)
		return
	}
	if !s.sells(px) {
		return // free-riders are never sale candidates
	}
	for _, nb := range s.g.NeighborsView(id) {
		q := s.k.Peers.PxOf(int(nb))
		if q < 0 {
			continue
		}
		w := &s.ws[q]
		if w.flags&pfDirty != 0 {
			continue // not built yet; the lazy rebuild will include px
		}
		pos := s.searchNbr(w.nbrs, id)
		w.nbrs = append(w.nbrs, 0)
		copy(w.nbrs[pos+1:], w.nbrs[pos:])
		w.nbrs[pos] = px
	}
}

// detachNeighborhoods removes a departing peer from the cached routing
// neighborhoods around it (the incremental dual of attachNeighborhoods).
func (s *simulation) detachNeighborhoods(px int32, id int) {
	if s.cfg.Routing == RouteDegreeWeighted {
		s.markNeighborhoodDirty(id)
		return
	}
	for _, nb := range s.g.NeighborsView(id) {
		q := s.k.Peers.PxOf(int(nb))
		if q < 0 {
			continue
		}
		w := &s.ws[q]
		if w.flags&pfDirty != 0 {
			continue
		}
		pos := s.searchNbr(w.nbrs, id)
		if pos < len(w.nbrs) && w.nbrs[pos] == px {
			w.nbrs = append(w.nbrs[:pos], w.nbrs[pos+1:]...)
		}
	}
}

// searchNbr returns the insertion position of overlay id in a neighbor
// cache ordered by ascending overlay id.
func (s *simulation) searchNbr(nbrs []int32, id int) int {
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.k.Peers.At(nbrs[mid]).ID) < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// scheduleSpend arms the next spend event for a solvent peer.
func (s *simulation) scheduleSpend(px int32, p *wpeer, balance int64) {
	rate := p.baseMu
	if s.cfg.Spending != nil {
		rate = s.cfg.Spending.Rate(p.baseMu, balance)
	}
	if rate <= 0 {
		p.flags |= pfIdle
		return
	}
	delay := s.k.RNG.Exponential(rate)
	h, err := s.k.Sched.Schedule(delay, evSpend, px, int64(s.k.Peers.At(px).Gen))
	if err != nil {
		// Schedule relative to now with non-negative delay cannot fail;
		// treat as idle defensively.
		p.flags |= pfIdle
		return
	}
	p.pending = h
	p.flags &^= pfIdle
}

// spend executes one credit departure from the peer at index px.
func (s *simulation) spend(px int32, gen uint32) {
	kp := s.k.Peers.At(px)
	if !kp.Alive || kp.Gen != gen {
		return // departed between scheduling and firing (kernel invalidation)
	}
	p := &s.ws[px]
	balance := s.k.Ledger.BalanceAt(kp.Acct)
	if balance <= 0 {
		p.flags |= pfIdle
		return
	}
	target, ok := s.pickNeighbor(px, p)
	if ok {
		if s.k.Transfer(px, target, 1) {
			s.res.SpendEvents++
			if s.k.Sched.Now() >= s.cfg.MeasureStart {
				p.spends++
			}
			if s.cfg.Routing == RouteAvailability {
				// The buyer now holds a fresh chunk it can resell.
				s.addInventory(px)
			}
			s.receiveIncome(target, 1)
			// receiveIncome may have taxed the payee and redistributed
			// credits back to this spender, so the locally decremented
			// balance would be stale — a spender could strand idle while
			// solvent. Re-read the ledger before deciding.
			balance = s.k.Ledger.BalanceAt(kp.Acct)
		}
	}
	if balance > 0 {
		s.scheduleSpend(px, p, balance)
	} else {
		p.flags |= pfIdle
	}
}

// receiveIncome handles a payment landing at a peer: the policy pipeline
// (taxation, redistribution) and waking an idle peer.
func (s *simulation) receiveIncome(px int32, amount int64) {
	kp := s.k.Peers.At(px)
	if !kp.Alive {
		return
	}
	p := &s.ws[px]
	balance := s.k.Ledger.BalanceAt(kp.Acct)
	if s.engine != nil {
		s.k.PolicyIncome(px, balance-amount, amount)
		// The pipeline may have taxed the payee or redistributed credits
		// back to it; re-read before deciding whether it can spend.
		balance = s.k.Ledger.BalanceAt(kp.Acct)
	}
	if p.flags&pfIdle != 0 && balance > 0 {
		s.scheduleSpend(px, p, balance)
	}
}

// inventory returns px's decayed inventory at time now.
func (s *simulation) inventory(px int32, now float64) float64 {
	inv := s.invs[px]
	if inv == 0 {
		return 0
	}
	return inv * math.Exp(-(now-s.invAts[px])/availabilityTau)
}

// addInventory records a freshly bought chunk at the current time (lazy
// per-peer decay anchored at invAts[px]).
func (s *simulation) addInventory(px int32) {
	now := s.k.Sched.Now()
	s.invs[px] = s.inventory(px, now) + 1
	s.invAts[px] = now
}

// pickNeighbor samples the purchase target according to the routing policy.
func (s *simulation) pickNeighbor(px int32, p *wpeer) (int32, bool) {
	if p.flags&pfDirty != 0 {
		s.rebuildWeights(px, p)
	}
	if len(p.nbrs) == 0 {
		return 0, false
	}
	var weights []float64
	switch s.cfg.Routing {
	case RouteUniform:
		return p.nbrs[s.k.RNG.Intn(len(p.nbrs))], true
	case RouteDegreeWeighted:
		weights = s.degw[px]
	case RouteAvailability:
		now := s.k.Sched.Now()
		if cap(s.wscratch) < len(p.nbrs) {
			s.wscratch = make([]float64, len(p.nbrs))
		}
		weights = s.wscratch[:len(p.nbrs)]
		for i, nb := range p.nbrs {
			weights[i] = availabilityFloor + s.inventory(nb, now)
		}
	}
	idx, err := xrand.SampleWeighted(s.k.RNG, weights)
	if err != nil {
		return 0, false
	}
	return p.nbrs[idx], true
}

// sells reports whether the peer at index px participates as a seller;
// free-riders never do.
func (s *simulation) sells(px int32) bool { return s.ws[px].flags&pfFreeRider == 0 }

// rebuildWeights refreshes the cached neighbor indices (and degree
// weights) of a peer whose neighborhood changed. Free-riding neighbors are
// excluded: they hold no inventory to sell.
func (s *simulation) rebuildWeights(px int32, p *wpeer) {
	id := int(s.k.Peers.At(px).ID)
	if deg := s.g.Degree(id); cap(p.nbrs) < deg {
		p.nbrs = make([]int32, 0, deg)
	} else {
		p.nbrs = p.nbrs[:0]
	}
	for _, nb := range s.g.NeighborsView(id) {
		if px := s.k.Peers.PxOf(int(nb)); px >= 0 && s.sells(px) {
			p.nbrs = append(p.nbrs, px)
		}
	}
	p.flags &^= pfDirty
	if s.degw == nil {
		return
	}
	w := s.degw[px]
	if cap(w) < len(p.nbrs) {
		w = make([]float64, len(p.nbrs))
	}
	w = w[:len(p.nbrs)]
	for i, nb := range p.nbrs {
		w[i] = float64(s.g.Degree(int(s.k.Peers.At(nb).ID)))
	}
	s.degw[px] = w
}

// prebuildNeighborhoods fills every peer's cached routing neighborhood from
// one shared slab — the closed-overlay fast path (identical contents to the
// lazy rebuildWeights).
func (s *simulation) prebuildNeighborhoods() {
	slab := make([]int32, 0, 2*s.g.NumEdges())
	var wslab []float64
	if s.degw != nil {
		wslab = make([]float64, 0, 2*s.g.NumEdges())
	}
	for px := 0; px < s.k.Peers.Len(); px++ {
		p := &s.ws[px]
		start := len(slab)
		for _, nb := range s.g.NeighborsView(int(s.k.Peers.At(int32(px)).ID)) {
			if q := s.k.Peers.PxOf(int(nb)); q >= 0 && s.sells(q) {
				slab = append(slab, q)
			}
		}
		p.nbrs = slab[start:len(slab):len(slab)]
		p.flags &^= pfDirty
		if s.degw != nil {
			wstart := len(wslab)
			for _, nb := range p.nbrs {
				wslab = append(wslab, float64(s.g.Degree(int(s.k.Peers.At(nb).ID))))
			}
			s.degw[px] = wslab[wstart:len(wslab):len(wslab)]
		}
	}
}

// markNeighborhoodDirty invalidates cached weights around a node whose
// incident edges changed (the degree-weighted routing path).
func (s *simulation) markNeighborhoodDirty(id int) {
	for _, nb := range s.g.NeighborsView(id) {
		if px := s.k.Peers.PxOf(int(nb)); px >= 0 {
			s.ws[px].flags |= pfDirty
		}
	}
	if px := s.k.Peers.PxOf(id); px >= 0 {
		s.ws[px].flags |= pfDirty
	}
}

func (s *simulation) finish() error {
	if err := s.k.Finish(); err != nil {
		return fmt.Errorf("market: %w", err)
	}
	window := s.cfg.Horizon - s.cfg.MeasureStart
	for px := 0; px < s.k.Peers.Len(); px++ {
		kp := s.k.Peers.At(int32(px))
		if !kp.Alive {
			continue
		}
		s.res.FinalWealth[int(kp.ID)] = s.k.Balance(int32(px))
		if window > 0 {
			s.res.SpendingRate[int(kp.ID)] = float64(s.ws[px].spends) / window
		}
	}
	if s.k.Peers.Live() > 0 {
		g, ok := s.k.GiniNow()
		if !ok {
			return fmt.Errorf("%w: final Gini undefined", ErrBadConfig)
		}
		s.res.FinalGini = g
	}
	if s.engine != nil {
		t := s.engine.Totals()
		s.res.TaxCollected = t.Collected
		s.res.TaxRedistributed = t.Redistributed
		s.res.Injected = t.Injected
	}
	s.res.Gini = s.k.Metrics.Gini
	s.res.Population = s.k.Metrics.Population
	s.res.Supply = s.k.Metrics.Supply
	s.res.Snapshots = s.k.Metrics.Snapshots
	s.res.Joins = s.k.Joins()
	s.res.Departures = s.k.Departures()
	return nil
}
