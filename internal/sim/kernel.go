// Package sim is the shared simulation kernel under both workload
// simulators (internal/market, internal/streaming). It owns the mechanics
// every regime needs and that each simulator used to hand-roll: the dense
// peer table (intern slab + free list + generation counters), the ledger
// binding of peers to dense credit slots, the churn process (Poisson
// arrivals / exponential lifetimes, with a rate-shape hook for flash-crowd
// and diurnal arrival patterns), and the metrics pipeline (periodic
// Gini/population/supply sampling off a mirrored balance histogram, wealth
// snapshots).
//
// A simulator plugs in as a Workload: OnJoin/OnDepart install and tear down
// per-peer workload state, OnEvent receives the workload's own DES event
// kinds (numbered from KindUser), and Sample extends the periodic
// measurement hook. The kernel preserves the exact scheduling and RNG draw
// order the pre-kernel simulators used, so same-seed runs produce
// byte-identical Results across the refactor — the golden determinism tests
// in both workload packages pin this.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"creditp2p/internal/credit"
	"creditp2p/internal/des"
	"creditp2p/internal/policy"
	"creditp2p/internal/stats"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// ErrBadConfig is returned for invalid kernel configurations.
var ErrBadConfig = errors.New("sim: invalid config")

// Kernel-owned event kinds. Workload kinds must start at KindUser.
const (
	// KindDepart removes the actor peer; the payload carries its generation.
	KindDepart uint16 = iota + 1
	// KindArrive joins a fresh peer under churn.
	KindArrive
	// KindSample records one periodic metrics sample.
	KindSample
	// KindSnapshot records the wealth snapshot indexed by the payload.
	KindSnapshot
	// KindTick drives round-based workloads; the payload is the tick index.
	KindTick
	// KindPolicy drives the economic policy engine's periodic epoch.
	KindPolicy
	// KindUser is the first event kind available to workloads.
	KindUser uint16 = 16
)

// Workload is a simulation built on the kernel. The kernel calls OnJoin
// right after a peer is interned and its ledger account opened (the
// workload installs its per-peer state and arms initial events; an error
// vetoes the join), OnDepart right before a departing peer's slot, account
// and graph node are released (the workload cancels pending events and
// invalidates caches), OnEvent for every event kind >= KindUser and every
// KindTick, and Sample after each periodic kernel sample.
type Workload interface {
	OnJoin(px int32) error
	OnDepart(px int32)
	OnEvent(ev des.Event)
	Sample(now float64)
}

// CreditWaker is optionally implemented by a Workload whose peers can idle
// when bankrupt: the kernel's policy host calls OnCredit after a policy
// credited the peer (redistribution, subsidy, injection), and the workload
// re-arms whatever the new balance enables (the market re-schedules the
// peer's next spend). Round-based workloads need not implement it.
type CreditWaker interface {
	OnCredit(px int32)
}

// Churn configures the kernel's open-network process: Poisson arrivals,
// exponential lifetimes, and topology attachment for joining peers.
type Churn struct {
	// ArrivalRate is the constant peer arrival rate in peers/second.
	ArrivalRate float64
	// MeanLifespan is the mean of the exponential peer lifetime in seconds.
	MeanLifespan float64
	// AttachDegree is the number of edges a joining peer creates.
	AttachDegree int
	// Preferential selects degree-proportional attachment; false uniform.
	Preferential bool
	// RateAt, when non-nil, makes the arrival rate time-varying (flash
	// crowds, diurnal cycles): arrivals are generated by Lewis–Shedler
	// thinning against an envelope, so RateAt(t) must never exceed it.
	// Nil keeps the constant-rate path, which draws exactly one
	// exponential per arrival (byte-identical to the pre-kernel
	// simulators).
	RateAt func(t float64) float64
	// MaxRate is the global thinning envelope for RateAt.
	MaxRate float64
	// EnvelopeAt, when non-nil (requires RateAt), supplies a tighter
	// piecewise-constant envelope instead of the global MaxRate: it
	// returns an upper bound of RateAt holding from t until the returned
	// boundary. Candidate arrivals are then generated by exact
	// piecewise-exponential inversion — restarting the memoryless draw at
	// each envelope boundary — which eliminates nearly every rejected
	// candidate for spiky shapes (an 8x flash-crowd spike wastes 7/8 of
	// all candidates under a global envelope, none under a tight
	// piecewise one).
	EnvelopeAt func(t float64) (rate, until float64)
	// FastAttach joins peers through topology.AttachFast — O(degree) per
	// join instead of the exact samplers' O(N) candidate scan, which is
	// what makes heavy churn feasible at 100k+ populations. Its RNG draws
	// differ from the exact samplers', so flipping it changes same-seed
	// outputs.
	FastAttach bool
}

func (c *Churn) validate() error {
	if c.ArrivalRate < 0 || c.MeanLifespan <= 0 || c.AttachDegree < 1 {
		return fmt.Errorf("%w: churn %+v", ErrBadConfig, *c)
	}
	if c.RateAt != nil && c.EnvelopeAt == nil && (c.MaxRate <= 0 || math.IsNaN(c.MaxRate)) {
		return fmt.Errorf("%w: churn rate shape needs a positive MaxRate envelope", ErrBadConfig)
	}
	if c.EnvelopeAt != nil && c.RateAt == nil {
		return fmt.Errorf("%w: churn EnvelopeAt without RateAt", ErrBadConfig)
	}
	return nil
}

// Config describes one kernel instance.
type Config struct {
	// Graph is the overlay topology; required when Churn is set (arrivals
	// attach to it, departures remove from it).
	Graph *topology.Graph
	// InitialWealth is the per-peer credit endowment minted at join.
	InitialWealth int64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// Seed drives all randomness.
	Seed int64
	// SampleEvery is the periodic sampling interval; 0 disables kernel
	// sample events (round-based workloads sample from their tick).
	SampleEvery float64
	// SnapshotTimes lists times at which sorted wealth snapshots are taken.
	SnapshotTimes []float64
	// TickEvery, when positive, schedules KindTick events at t = 0,
	// TickEvery, 2*TickEvery, ... strictly below Horizon, delivered to
	// Workload.OnEvent with the tick index in the payload.
	TickEvery float64
	// Churn enables the open-network process; nil keeps the network closed.
	Churn *Churn
	// MinPopulation is the floor below which departures are deferred
	// (rescheduled under churn, refused otherwise). Zero means 2.
	MinPopulation int
}

// Kernel owns the shared simulation state: virtual time, randomness, the
// credit ledger, the dense peer table and the metrics pipeline.
type Kernel struct {
	cfg Config
	w   Workload

	// Sched is the DES scheduler driving virtual time.
	Sched *des.Scheduler
	// RNG is the single deterministic random source of the run.
	RNG *xrand.RNG
	// Ledger tracks every credit balance, peers and system pots alike.
	Ledger *credit.Ledger
	// Peers is the dense peer table.
	Peers PeerTable
	// Metrics is the measurement pipeline.
	Metrics Metrics

	// external are ledger slots that belong to system accounts (taxation
	// pots, ...) rather than peers; they are excluded from the wealth
	// distribution and from the histogram sync check.
	external []int32

	// engine, when bound, is the economic policy pipeline the kernel
	// drives: income hooks from the workloads' transfers, the periodic
	// KindPolicy epoch, and the join/depart hooks. host adapts the kernel
	// to the policy.Host surface; pot is the engine's shared system
	// account; epochEvery is the epoch period (0 disables epochs).
	engine     *policy.Engine
	host       kernelHost
	pot        int32
	epochEvery float64

	running           bool
	joins, departures uint64
}

// NewKernel validates cfg and builds a kernel for the workload.
func NewKernel(cfg Config, w Workload) (*Kernel, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil workload", ErrBadConfig)
	}
	if cfg.InitialWealth < 0 || cfg.InitialWealth > stats.MaxCreditStep {
		return nil, fmt.Errorf("%w: initial wealth %d outside [0, %d]", ErrBadConfig, cfg.InitialWealth, stats.MaxCreditStep)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("%w: horizon %v", ErrBadConfig, cfg.Horizon)
	}
	if cfg.Churn != nil {
		if err := cfg.Churn.validate(); err != nil {
			return nil, err
		}
		if cfg.Graph == nil {
			return nil, fmt.Errorf("%w: churn requires a graph", ErrBadConfig)
		}
	}
	if cfg.MinPopulation <= 0 {
		cfg.MinPopulation = 2
	}
	return &Kernel{
		cfg:     cfg,
		w:       w,
		Sched:   des.NewScheduler(),
		RNG:     xrand.New(cfg.Seed),
		Ledger:  credit.NewLedger(),
		Metrics: newMetrics(),
	}, nil
}

// Horizon returns the configured duration.
func (k *Kernel) Horizon() float64 { return k.cfg.Horizon }

// Running reports whether Start has been called — the way a Workload
// distinguishes mid-run joins (churn arrivals) from initial population.
func (k *Kernel) Running() bool { return k.running }

// Joins returns the number of churn arrivals completed.
func (k *Kernel) Joins() uint64 { return k.joins }

// Departures returns the number of peer departures completed.
func (k *Kernel) Departures() uint64 { return k.departures }

// BindPolicies attaches an economic policy engine to the kernel: pot is
// the engine's shared system account (an external ledger slot, typically
// from OpenExternal), and epochEvery > 0 schedules the periodic KindPolicy
// epoch at epochEvery, 2*epochEvery, ... up to the horizon. Call it after
// NewKernel and before the initial population joins, so join-hook policies
// see every peer. A nil engine is a no-op.
func (k *Kernel) BindPolicies(e *policy.Engine, pot int32, epochEvery float64) error {
	if e == nil {
		return nil
	}
	if k.running {
		return fmt.Errorf("%w: policies bound after Start", ErrBadConfig)
	}
	if epochEvery < 0 || math.IsNaN(epochEvery) {
		return fmt.Errorf("%w: policy epoch %v", ErrBadConfig, epochEvery)
	}
	k.engine = e
	k.pot = pot
	k.epochEvery = epochEvery
	k.host = kernelHost{k: k}
	if w, ok := k.w.(CreditWaker); ok {
		k.host.wake = w.OnCredit
	}
	return nil
}

// HasPolicies reports whether a policy engine is bound.
func (k *Kernel) HasPolicies() bool { return k.engine != nil }

// PolicyIncome routes an income payment that just landed at peer px
// through the policy pipeline: pre is the pre-income balance, amount the
// payment. Workloads call it after every peer-to-peer transfer when
// policies are bound; it is a no-op otherwise.
func (k *Kernel) PolicyIncome(px int32, pre, amount int64) {
	if k.engine != nil {
		k.engine.Income(&k.host, px, pre, amount)
	}
}

// PolicyTotals returns the bound pipeline's cumulative ledger activity
// (zero when no engine is bound).
func (k *Kernel) PolicyTotals() policy.Totals {
	if k.engine == nil {
		return policy.Totals{}
	}
	return k.engine.Totals()
}

// kernelHost adapts the kernel to policy.Host. Pay and Mint forward to the
// workload's CreditWaker, mirroring the pre-engine market behavior of
// waking an idle spender the moment redistribution or injection makes it
// solvent again.
type kernelHost struct {
	k    *Kernel
	wake func(px int32)
}

var _ policy.Host = (*kernelHost)(nil)

func (h *kernelHost) Now() float64           { return h.k.Sched.Now() }
func (h *kernelHost) Running() bool          { return h.k.running }
func (h *kernelHost) RNG() *xrand.RNG        { return h.k.RNG }
func (h *kernelHost) Live() int              { return h.k.Peers.Live() }
func (h *kernelHost) Peers() int             { return h.k.Peers.Len() }
func (h *kernelHost) Alive(px int32) bool    { return h.k.Peers.At(px).Alive }
func (h *kernelHost) Balance(px int32) int64 { return h.k.Balance(px) }
func (h *kernelHost) PotBalance() int64      { return h.k.Ledger.BalanceAt(h.k.pot) }

func (h *kernelHost) Collect(px int32, amount int64) bool {
	return h.k.TransferOut(px, h.k.pot, amount)
}

func (h *kernelHost) Pay(px int32, amount int64) bool {
	if !h.k.TransferIn(h.k.pot, px, amount) {
		return false
	}
	if h.wake != nil {
		h.wake(px)
	}
	return true
}

func (h *kernelHost) Mint(px int32, amount int64) bool {
	if err := h.k.Deposit(px, amount); err != nil {
		return false
	}
	if h.wake != nil {
		h.wake(px)
	}
	return true
}

func (h *kernelHost) Gini() (float64, bool) { return h.k.GiniNow() }

// OpenExternal opens a system ledger account (a taxation pot, an escrow)
// that is not a peer: excluded from the wealth distribution and from the
// histogram sync check.
func (k *Kernel) OpenExternal(id int, initial int64) (int32, error) {
	slot, err := k.Ledger.OpenSlot(id, initial)
	if err != nil {
		return 0, err
	}
	k.external = append(k.external, slot)
	return slot, nil
}

// Join interns id as a peer: opens its ledger account with the initial
// endowment, mirrors the endowment into the balance histogram, and hands
// the fresh index to the workload's OnJoin. A workload veto (OnJoin error)
// unwinds the join completely.
func (k *Kernel) Join(id int) (int32, error) {
	acct, err := k.Ledger.OpenSlot(id, k.cfg.InitialWealth)
	if err != nil {
		return 0, err
	}
	k.Metrics.hist.Add(k.cfg.InitialWealth)
	px := k.Peers.Intern(id, acct)
	if err := k.w.OnJoin(px); err != nil {
		// Unwind: burn the endowment and recycle the slot. The mint+burn
		// pair leaves the supply and conservation intact.
		k.Peers.Release(px)
		if burned, cerr := k.Ledger.Close(id); cerr == nil {
			k.Metrics.hist[burned]--
		}
		return 0, err
	}
	if k.engine != nil {
		k.engine.Joined(&k.host, px)
	}
	return px, nil
}

// Start arms the kernel's own event streams — periodic samples, snapshots,
// the first tick, churn departures for the initial population and the
// arrival process — in that order, and marks the kernel running. Call it
// after the initial population has joined.
func (k *Kernel) Start() error {
	k.running = true
	if k.cfg.SampleEvery > 0 {
		if _, err := k.Sched.Schedule(k.cfg.SampleEvery, KindSample, -1, 0); err != nil {
			return err
		}
	}
	for i, at := range k.cfg.SnapshotTimes {
		if at < 0 || at > k.cfg.Horizon {
			return fmt.Errorf("%w: snapshot time %v outside [0, %v]", ErrBadConfig, at, k.cfg.Horizon)
		}
		if _, err := k.Sched.ScheduleAt(at, KindSnapshot, -1, int64(i)); err != nil {
			return err
		}
	}
	if k.cfg.TickEvery > 0 {
		if _, err := k.Sched.ScheduleAt(0, KindTick, -1, 0); err != nil {
			return err
		}
	}
	if k.cfg.Churn != nil {
		// Initial peers are as mortal as joiners (memoryless lifespans), so
		// the population relaxes to ArrivalRate * MeanLifespan.
		for px := 0; px < k.Peers.Len(); px++ {
			if k.Peers.At(int32(px)).Alive {
				k.scheduleDeparture(int32(px))
			}
		}
		if k.arrivalsEnabled() {
			if err := k.scheduleArrival(); err != nil {
				return err
			}
		}
	}
	// The policy epoch is armed last, preserving the relative event order
	// of the pre-engine market, which scheduled its injection round after
	// everything Start arms.
	if k.engine != nil && k.epochEvery > 0 {
		if _, err := k.Sched.Schedule(k.epochEvery, KindPolicy, -1, 0); err != nil {
			return err
		}
	}
	return nil
}

func (k *Kernel) arrivalsEnabled() bool {
	ch := k.cfg.Churn
	if ch.RateAt != nil {
		return true // validate() guaranteed a usable envelope
	}
	return ch.ArrivalRate > 0
}

// Run drives the event loop to the horizon and leaves virtual time there.
func (k *Kernel) Run() {
	k.Sched.RunUntil(k.cfg.Horizon, k.dispatch)
}

func (k *Kernel) dispatch(ev des.Event) {
	switch ev.Kind {
	case KindDepart:
		k.depart(ev.Actor, uint32(ev.Payload))
	case KindArrive:
		k.arrive()
	case KindSample:
		k.sample()
	case KindSnapshot:
		k.RecordSnapshot(k.cfg.SnapshotTimes[ev.Payload])
	case KindPolicy:
		k.engine.Epoch(&k.host, ev.Time)
		if ev.Time+k.epochEvery <= k.cfg.Horizon {
			if _, err := k.Sched.Schedule(k.epochEvery, KindPolicy, -1, 0); err != nil {
				return
			}
		}
	case KindTick:
		k.w.OnEvent(ev)
		if next := ev.Time + k.cfg.TickEvery; next < k.cfg.Horizon {
			if _, err := k.Sched.ScheduleAt(next, KindTick, -1, ev.Payload+1); err != nil {
				return
			}
		}
	default:
		k.w.OnEvent(ev)
	}
}

// --- churn process ---

func (k *Kernel) scheduleArrival() error {
	ch := k.cfg.Churn
	if ch.EnvelopeAt != nil {
		// Exact piecewise-exponential inversion: the memoryless property
		// lets the draw restart at each envelope boundary with the next
		// segment's rate.
		t := k.Sched.Now()
		for {
			rate, until := ch.EnvelopeAt(t)
			if rate <= 0 {
				// An off window: no arrivals until the boundary. An
				// unbounded (or degenerate) off window shuts the arrival
				// process down entirely.
				if until <= t || math.IsInf(until, 1) {
					return nil
				}
				t = until
				continue
			}
			d := k.RNG.Exponential(rate)
			if t+d <= until || until <= t || math.IsInf(until, 1) {
				t += d
				break
			}
			t = until
		}
		_, err := k.Sched.ScheduleAt(t, KindArrive, -1, 0)
		return err
	}
	rate := ch.ArrivalRate
	if ch.RateAt != nil {
		rate = ch.MaxRate
	}
	delay := k.RNG.Exponential(rate)
	_, err := k.Sched.Schedule(delay, KindArrive, -1, 0)
	return err
}

func (k *Kernel) arrive() {
	ch := k.cfg.Churn
	if ch.RateAt != nil {
		// Lewis–Shedler thinning: candidate arrivals fire at the envelope
		// rate and are accepted with probability rate(t)/envelope(t),
		// which realizes the inhomogeneous Poisson process exactly. When
		// the envelope is tight (piecewise), the acceptance probability
		// reaches 1 and Bernoulli draws nothing.
		env := ch.MaxRate
		if ch.EnvelopeAt != nil {
			env, _ = ch.EnvelopeAt(k.Sched.Now())
		}
		if !k.RNG.Bernoulli(ch.RateAt(k.Sched.Now()) / env) {
			if err := k.scheduleArrival(); err != nil {
				return
			}
			return
		}
	}
	id := k.cfg.Graph.NewNodeID()
	var err error
	switch {
	case ch.FastAttach:
		err = topology.AttachFast(k.cfg.Graph, id, ch.AttachDegree, ch.Preferential, k.RNG)
	case ch.Preferential:
		err = topology.AttachPreferential(k.cfg.Graph, id, ch.AttachDegree, k.RNG)
	default:
		err = topology.AttachRandom(k.cfg.Graph, id, ch.AttachDegree, k.RNG)
	}
	if err == nil {
		if px, jerr := k.Join(id); jerr == nil {
			k.joins++
			k.scheduleDeparture(px)
		}
	}
	// Keep the arrival process running regardless of individual failures.
	if err := k.scheduleArrival(); err != nil {
		return
	}
}

func (k *Kernel) scheduleDeparture(px int32) {
	life := k.RNG.Exponential(1 / k.cfg.Churn.MeanLifespan)
	if _, err := k.Sched.Schedule(life, KindDepart, px, int64(k.Peers.At(px).Gen)); err != nil {
		return
	}
}

func (k *Kernel) depart(px int32, gen uint32) {
	if !k.Peers.Current(px, gen) {
		return // departed between scheduling and firing
	}
	// Keep at least a seed of peers alive so the market never empties.
	if k.Peers.Live() <= k.cfg.MinPopulation {
		k.scheduleDeparture(px)
		return
	}
	k.removePeer(px, true)
}

// Depart removes a live peer outside the churn process — planned
// departures such as a seeder drain. It reports whether the peer actually
// left (the minimum-population floor can refuse).
func (k *Kernel) Depart(px int32) bool {
	p := k.Peers.At(px)
	if !p.Alive || k.Peers.Live() <= k.cfg.MinPopulation {
		return false
	}
	k.removePeer(px, k.cfg.Churn != nil)
	return true
}

// removePeer tears a live peer down: workload teardown first (pending-event
// cancellation, cache invalidation), then the slot release (generation
// bump), the ledger burn, and — for churn runs — the topology removal.
func (k *Kernel) removePeer(px int32, mutateGraph bool) {
	id := int(k.Peers.At(px).ID)
	if k.engine != nil {
		k.engine.Departed(&k.host, px)
	}
	k.w.OnDepart(px)
	k.Peers.Release(px)
	burned, err := k.Ledger.Close(id)
	if err != nil {
		return
	}
	k.Metrics.hist[burned]--
	if mutateGraph && k.cfg.Graph != nil {
		if err := k.cfg.Graph.RemoveNode(id); err != nil {
			return
		}
	}
	k.departures++
}

// --- ledger binding ---

// Balance returns a live peer's balance.
func (k *Kernel) Balance(px int32) int64 {
	return k.Ledger.BalanceAt(k.Peers.At(px).Acct)
}

// Transfer moves amount credits between two live peers, mirroring both
// sides into the balance histogram. It reports success (an insufficient
// payer balance is a normal outcome, not an error).
func (k *Kernel) Transfer(from, to int32, amount int64) bool {
	return k.TransferAcct(k.Peers.At(from).Acct, k.Peers.At(to).Acct, amount)
}

// TransferAcct moves amount credits between two live peers addressed by
// their ledger slots, mirroring both sides into the histogram — the variant
// of Transfer for workloads that mirror peer accounts in their own dense
// state and skip the peer-table read on the hot path.
func (k *Kernel) TransferAcct(fa, ta int32, amount int64) bool {
	if !k.Ledger.TryTransferAt(fa, ta, amount) {
		return false
	}
	fb := k.Ledger.BalanceAt(fa)
	k.Metrics.hist.Move(fb+amount, fb)
	tb := k.Ledger.BalanceAt(ta)
	k.Metrics.hist.Move(tb-amount, tb)
	return true
}

// TransferOut moves amount credits from a live peer to a system account
// (taxation pot), mirroring only the peer side.
func (k *Kernel) TransferOut(from int32, toSlot int32, amount int64) bool {
	fa := k.Peers.At(from).Acct
	if !k.Ledger.TryTransferAt(fa, toSlot, amount) {
		return false
	}
	fb := k.Ledger.BalanceAt(fa)
	k.Metrics.hist.Move(fb+amount, fb)
	return true
}

// TransferIn moves amount credits from a system account to a live peer,
// mirroring only the peer side.
func (k *Kernel) TransferIn(fromSlot int32, to int32, amount int64) bool {
	ta := k.Peers.At(to).Acct
	if !k.Ledger.TryTransferAt(fromSlot, ta, amount) {
		return false
	}
	tb := k.Ledger.BalanceAt(ta)
	k.Metrics.hist.Move(tb-amount, tb)
	return true
}

// Deposit mints amount credits into a live peer's account (credit
// injection), mirroring the histogram.
func (k *Kernel) Deposit(px int32, amount int64) error {
	acct := k.Peers.At(px).Acct
	if err := k.Ledger.DepositAt(acct, amount); err != nil {
		return err
	}
	b := k.Ledger.BalanceAt(acct)
	k.Metrics.hist.Move(b-amount, b)
	return nil
}

// --- metrics pipeline ---

func (k *Kernel) sample() {
	k.RecordSample(k.Sched.Now())
	k.w.Sample(k.Sched.Now())
	if k.Sched.Now()+k.cfg.SampleEvery <= k.cfg.Horizon {
		if _, err := k.Sched.Schedule(k.cfg.SampleEvery, KindSample, -1, 0); err != nil {
			return
		}
	}
}

// RecordSample appends one Gini/population/supply observation at time now.
// Round-based workloads call it directly from their tick.
func (k *Kernel) RecordSample(now float64) {
	if k.Peers.Live() == 0 {
		return
	}
	if g, ok := k.GiniNow(); ok {
		k.Metrics.Gini.Add(now, g)
	}
	k.Metrics.Population.Add(now, float64(k.Peers.Live()))
	k.Metrics.Supply.Add(now, float64(k.Ledger.Total()))
}

// GiniNow returns the current wealth Gini over live peers, walked off the
// balance histogram (bit-identical to sorting the balances). ok is false
// for an empty population.
func (k *Kernel) GiniNow() (float64, bool) {
	return stats.HistGini(k.Metrics.hist)
}

// RecordSnapshot stores the sorted wealth distribution labeled time at.
func (k *Kernel) RecordSnapshot(at float64) {
	k.Metrics.Snapshots = append(k.Metrics.Snapshots, Snapshot{
		Time:   at,
		Sorted: trace.SortedSnapshot(k.wealthVector()),
	})
}

// wealthVector fills the reused scratch buffer with live peers' balances in
// dense index order, widened to float64.
func (k *Kernel) wealthVector() []float64 {
	out := k.Metrics.wealthBuf[:0]
	for px := range k.Peers.peers {
		p := &k.Peers.peers[px]
		if !p.Alive {
			continue
		}
		out = append(out, float64(k.Ledger.BalanceAt(p.Acct)))
	}
	k.Metrics.wealthBuf = out
	return out
}

// Finish validates the run's invariants: credit conservation over the whole
// ledger, and that the balance histogram mirrored every live-peer balance
// change (drift means a mutation hook is missing). It also orders the
// recorded snapshots by time.
func (k *Kernel) Finish() error {
	if err := k.Ledger.CheckConservation(); err != nil {
		return fmt.Errorf("sim: conservation violated: %w", err)
	}
	if err := k.checkHist(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	snaps := k.Metrics.Snapshots
	sortSnapshots(snaps)
	return nil
}

// checkHist verifies the balance histogram against the ledger: it must
// count exactly the live peers and hold exactly the credits outside the
// system pots.
func (k *Kernel) checkHist() error {
	var pots int64
	for _, slot := range k.external {
		pots += k.Ledger.BalanceAt(slot)
	}
	want := k.Ledger.Total() - pots
	n, total := k.Metrics.hist.Sums()
	if n != int64(k.Peers.Live()) || total != want {
		return fmt.Errorf("wealth histogram out of sync: tracks %d peers / %d credits, expected %d live peers / %d credits (ledger total %d minus %d held by %d system pots, off by %+d) — a balance mutation bypassed the histogram mirror",
			n, total, k.Peers.Live(), want, k.Ledger.Total(), pots, len(k.external), total-want)
	}
	return nil
}

func sortSnapshots(s []Snapshot) {
	sort.SliceStable(s, func(i, j int) bool { return s[i].Time < s[j].Time })
}
