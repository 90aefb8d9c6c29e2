package policy

import (
	"fmt"
	"math"
)

// --- fixed-rate income taxation (single binomial draw) ---

// IncomeTax collects a Rate fraction of income arriving at peers whose
// pre-income wealth exceeds Threshold — the Sec. VI-C tax — with one
// binomial draw per payment (for the market's unit incomes at Rate <= 0.5,
// a single uniform compared against Rate). It only collects; compose with
// Redistribute (or a pot-funded NewcomerSubsidy) to recycle the pot.
type IncomeTax struct {
	Base
	// Rate is the income-tax fraction in [0, 1].
	Rate float64
	// Threshold is the pre-income wealth above which income is taxed.
	Threshold int64

	collected int64
}

// NewIncomeTax validates and builds the policy.
func NewIncomeTax(rate float64, threshold int64) (*IncomeTax, error) {
	if err := validRate("tax rate", rate); err != nil {
		return nil, err
	}
	if threshold < 0 {
		return nil, fmt.Errorf("%w: tax threshold %d", ErrBadPolicy, threshold)
	}
	return &IncomeTax{Rate: rate, Threshold: threshold}, nil
}

// OnIncome implements Policy.
func (it *IncomeTax) OnIncome(h Host, px int32, pre, amount int64) int64 {
	if amount <= 0 || pre <= it.Threshold {
		return 0
	}
	taxed := h.RNG().Binomial(amount, it.Rate)
	if taxed <= 0 || !h.Collect(px, taxed) {
		return 0
	}
	it.collected += taxed
	return taxed
}

// Collected returns the cumulative credits taxed into the pot.
func (it *IncomeTax) Collected() int64 { return it.collected }

func (it *IncomeTax) addTotals(t *Totals) { t.Collected += it.collected }

// --- adaptive taxation controller ---

// AdaptiveTaxConfig parameterizes the feedback controller.
type AdaptiveTaxConfig struct {
	// TargetGini is the wealth-Gini setpoint the controller steers toward.
	TargetGini float64
	// Gain is the tax-rate adjustment per unit of Gini error per epoch
	// (a proportional controller: rate += Gain * (gini - target)).
	Gain float64
	// InitialRate is the rate before the first epoch observation.
	InitialRate float64
	// MinRate and MaxRate clamp the controller output. MaxRate 0 means 1.
	MinRate, MaxRate float64
	// Threshold is the pre-income wealth above which income is taxed.
	Threshold int64
}

// AdaptiveTax is an income tax whose rate is retuned every epoch toward a
// target wealth Gini — the feedback-driven countermeasure Huberman & Wu
// style adaptive mechanisms argue for: inequality above target raises the
// rate, below target lowers it, so the economy pays only as much
// redistribution overhead as sustainability requires.
type AdaptiveTax struct {
	Base
	cfg  AdaptiveTaxConfig
	rate float64

	collected int64
}

// NewAdaptiveTax validates and builds the controller.
func NewAdaptiveTax(cfg AdaptiveTaxConfig) (*AdaptiveTax, error) {
	if cfg.MaxRate == 0 {
		cfg.MaxRate = 1
	}
	if err := validRate("target gini", cfg.TargetGini); err != nil {
		return nil, err
	}
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"initial rate", cfg.InitialRate}, {"min rate", cfg.MinRate}, {"max rate", cfg.MaxRate}} {
		if err := validRate(r.name, r.v); err != nil {
			return nil, err
		}
	}
	if cfg.MinRate > cfg.MaxRate {
		return nil, fmt.Errorf("%w: min rate %v above max rate %v", ErrBadPolicy, cfg.MinRate, cfg.MaxRate)
	}
	// An infinite gain turns a zero Gini error into a NaN rate (Inf·0).
	if !(cfg.Gain > 0) || math.IsInf(cfg.Gain, 1) {
		return nil, fmt.Errorf("%w: controller gain %v", ErrBadPolicy, cfg.Gain)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("%w: tax threshold %d", ErrBadPolicy, cfg.Threshold)
	}
	rate := cfg.InitialRate
	if rate < cfg.MinRate {
		rate = cfg.MinRate
	}
	if rate > cfg.MaxRate {
		rate = cfg.MaxRate
	}
	return &AdaptiveTax{cfg: cfg, rate: rate}, nil
}

// OnEpoch implements Policy: one proportional-controller step.
func (at *AdaptiveTax) OnEpoch(h Host, _ float64) {
	g, ok := h.Gini()
	if !ok {
		return
	}
	at.rate += at.cfg.Gain * (g - at.cfg.TargetGini)
	if at.rate < at.cfg.MinRate {
		at.rate = at.cfg.MinRate
	}
	if at.rate > at.cfg.MaxRate {
		at.rate = at.cfg.MaxRate
	}
}

// OnIncome implements Policy with the current controller rate.
func (at *AdaptiveTax) OnIncome(h Host, px int32, pre, amount int64) int64 {
	if amount <= 0 || pre <= at.cfg.Threshold || at.rate <= 0 {
		return 0
	}
	taxed := h.RNG().Binomial(amount, at.rate)
	if taxed <= 0 || !h.Collect(px, taxed) {
		return 0
	}
	at.collected += taxed
	return taxed
}

// Rate returns the controller's current tax rate.
func (at *AdaptiveTax) Rate() float64 { return at.rate }

// Collected returns the cumulative credits taxed into the pot.
func (at *AdaptiveTax) Collected() int64 { return at.collected }

func (at *AdaptiveTax) addTotals(t *Totals) { t.Collected += at.collected }

// --- demurrage ---

// Demurrage decays idle hoards: every epoch, each live peer holding more
// than Exempt loses Rate of the excess into the pot. Hoarded credits stop
// circulating (the condensation failure mode); demurrage puts a carrying
// cost on them without touching working balances at or below the
// exemption. Deterministic — no randomness is drawn.
type Demurrage struct {
	Base
	// Rate is the fraction of the excess decayed per epoch, in [0, 1].
	Rate float64
	// Exempt is the wealth level at or below which nothing decays.
	Exempt int64

	collected int64
}

// NewDemurrage validates and builds the policy.
func NewDemurrage(rate float64, exempt int64) (*Demurrage, error) {
	if err := validRate("demurrage rate", rate); err != nil {
		return nil, err
	}
	if exempt < 0 {
		return nil, fmt.Errorf("%w: demurrage exemption %d", ErrBadPolicy, exempt)
	}
	return &Demurrage{Rate: rate, Exempt: exempt}, nil
}

// OnEpoch implements Policy: one decay sweep in dense index order.
func (d *Demurrage) OnEpoch(h Host, _ float64) {
	n := h.Peers()
	for px := int32(0); int(px) < n; px++ {
		if !h.Alive(px) {
			continue
		}
		excess := h.Balance(px) - d.Exempt
		if excess <= 0 {
			continue
		}
		levy := int64(d.Rate * float64(excess))
		if levy <= 0 || !h.Collect(px, levy) {
			continue
		}
		d.collected += levy
	}
}

// Collected returns the cumulative credits decayed into the pot.
func (d *Demurrage) Collected() int64 { return d.collected }

func (d *Demurrage) addTotals(t *Totals) { t.Collected += d.collected }

// --- redistribution ---

// Redistribute drains the shared pot in whole rounds — one credit per live
// peer per round, the paper's "whenever the system has collected N units
// it returns a unit to each peer" — on every income event and every epoch.
// Place it after the collecting stages; a pot-funded NewcomerSubsidy
// placed before it gets first claim on the sub-round remainder.
type Redistribute struct {
	Base
	paid int64
}

// NewRedistribute builds the policy.
func NewRedistribute() *Redistribute { return &Redistribute{} }

func (rd *Redistribute) drain(h Host) {
	live := h.Live()
	if live <= 0 {
		return
	}
	rounds := h.PotBalance() / int64(live)
	if rounds <= 0 {
		return
	}
	n := h.Peers()
	for px := int32(0); int(px) < n; px++ {
		if !h.Alive(px) {
			continue
		}
		if h.Pay(px, rounds) {
			rd.paid += rounds
		}
	}
}

// OnIncome implements Policy: drain after upstream collections.
func (rd *Redistribute) OnIncome(h Host, _ int32, _, _ int64) int64 {
	rd.drain(h)
	return 0
}

// OnEpoch implements Policy: drain epoch collections (demurrage).
func (rd *Redistribute) OnEpoch(h Host, _ float64) { rd.drain(h) }

// PaidOut returns the cumulative credits redistributed.
func (rd *Redistribute) PaidOut() int64 { return rd.paid }

func (rd *Redistribute) addTotals(t *Totals) { t.Redistributed += rd.paid }

// --- newcomer endowment / subsidy ---

// NewcomerSubsidy grants joining peers extra credits: minted (an
// inflation-financed endowment) or paid from the pot (a transfer from
// taxed incumbents to arrivals — compose after a collecting stage). By
// default only mid-run joiners (churn arrivals) are subsidized; All
// extends it to the initial population.
type NewcomerSubsidy struct {
	Base
	// Grant is the per-joiner subsidy in credits.
	Grant int64
	// FromPot pays from the shared pot (capped at its balance) instead of
	// minting.
	FromPot bool
	// All subsidizes the initial population too, not just churn arrivals.
	All bool

	minted int64
	paid   int64
}

// NewNewcomerSubsidy validates and builds the policy.
func NewNewcomerSubsidy(grant int64, fromPot bool) (*NewcomerSubsidy, error) {
	if grant <= 0 {
		return nil, fmt.Errorf("%w: subsidy grant %d", ErrBadPolicy, grant)
	}
	return &NewcomerSubsidy{Grant: grant, FromPot: fromPot}, nil
}

// OnJoin implements Policy.
func (ns *NewcomerSubsidy) OnJoin(h Host, px int32) {
	if !ns.All && !h.Running() {
		return
	}
	if ns.FromPot {
		g := ns.Grant
		if pot := h.PotBalance(); g > pot {
			g = pot
		}
		if g > 0 && h.Pay(px, g) {
			ns.paid += g
		}
		return
	}
	if h.Mint(px, ns.Grant) {
		ns.minted += ns.Grant
	}
}

// Granted returns the cumulative subsidy credits issued (minted + paid).
func (ns *NewcomerSubsidy) Granted() int64 { return ns.minted + ns.paid }

func (ns *NewcomerSubsidy) addTotals(t *Totals) {
	t.Injected += ns.minted
	t.Redistributed += ns.paid
}

// --- periodic injection ---

// Injection mints Amount fresh credits into every live peer's account each
// epoch — the paper's "temporary remedy" whose long-run cost is inflation.
type Injection struct {
	Base
	// Amount is the per-peer mint per epoch.
	Amount int64

	injected int64
}

// NewInjection validates and builds the policy.
func NewInjection(amount int64) (*Injection, error) {
	if amount < 1 {
		return nil, fmt.Errorf("%w: injection amount %d", ErrBadPolicy, amount)
	}
	return &Injection{Amount: amount}, nil
}

// OnEpoch implements Policy: one mint sweep in dense index order.
func (in *Injection) OnEpoch(h Host, _ float64) {
	n := h.Peers()
	for px := int32(0); int(px) < n; px++ {
		if !h.Alive(px) {
			continue
		}
		if h.Mint(px, in.Amount) {
			in.injected += in.Amount
		}
	}
}

// Injected returns the cumulative minted credits.
func (in *Injection) Injected() int64 { return in.injected }

func (in *Injection) addTotals(t *Totals) { t.Injected += in.injected }
