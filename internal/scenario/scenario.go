// Package scenario is the declarative layer over the simulation kernel and
// its workloads: a Scenario names a topology generator, a churn pattern, a
// credit policy and a workload, and the package compiles it into a concrete
// market or streaming configuration at any of three scales. A registry of
// named presets makes regimes the individual simulators cannot express on
// their own — flash crowds, free-rider mixes, diurnal churn, seeder drains
// — runnable from one line (`cmd/experiments -scenario <name>`), and every
// preset is pinned by a golden determinism test.
//
// Quantities that must survive rescaling are declared relative: churn
// spike/period times are fractions of the horizon, arrival rates are
// per-second at the declared topology size and scale with the population,
// and mean lifespans compress with the horizon, so the Large instance of a
// scenario exercises the same regime as the Full one at 100k peers.
package scenario

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// ErrBadScenario is returned for invalid scenario definitions.
var ErrBadScenario = errors.New("scenario: invalid scenario")

// ErrUnknown is returned when a scenario name is not registered.
var ErrUnknown = errors.New("scenario: unknown scenario")

// Scale selects how large an instance of a scenario to compile.
type Scale int

const (
	// ScaleQuick shrinks the population 5x and the horizon 4x — seconds,
	// for tests and smoke runs.
	ScaleQuick Scale = iota + 1
	// ScaleFull runs the scenario as declared.
	ScaleFull
	// ScaleLarge rescales to a 100k-peer population on the scale engine.
	ScaleLarge
	// ScaleXLarge rescales to a million-peer population on the scale
	// engine. Expect a few GB of RSS and tens of seconds per run.
	ScaleXLarge
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	case ScaleLarge:
		return "large"
	case ScaleXLarge:
		return "xlarge"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale maps a preset name ("quick", "full", "large" or "xlarge", as
// String prints it) to its Scale — the one mapping from names to scales.
func ParseScale(name string) (Scale, error) {
	for s := ScaleQuick; s <= ScaleXLarge; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown preset %q (want quick, full, large or xlarge)", name)
}

// largeN and xlargeN are the populations of the ScaleLarge and ScaleXLarge
// instances.
const (
	largeN  = 100_000
	xlargeN = 1_000_000
)

// TopoKind selects the overlay generator.
type TopoKind int

const (
	// TopoScaleFree draws a power-law degree sequence (the paper's
	// overlay: alpha 2.5, mean degree 20).
	TopoScaleFree TopoKind = iota + 1
	// TopoRegular builds a random d-regular overlay (the symmetric
	// substrate).
	TopoRegular
)

// Topology declares the overlay generator. N is the population at
// ScaleFull; other scales derive from it.
type Topology struct {
	Kind TopoKind
	N    int
	// Alpha and MeanDegree parameterize TopoScaleFree.
	Alpha, MeanDegree float64
	// Degree parameterizes TopoRegular.
	Degree int
}

func (t Topology) build(n int, r *xrand.RNG) (*topology.Graph, error) {
	switch t.Kind {
	case TopoScaleFree:
		return topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: t.Alpha, MeanDegree: t.MeanDegree}, r)
	case TopoRegular:
		return topology.RandomRegular(n, t.Degree, r)
	default:
		return nil, fmt.Errorf("%w: topology kind %d", ErrBadScenario, t.Kind)
	}
}

// Pattern is the churn arrival-rate shape.
type Pattern int

const (
	// ChurnNone keeps the network closed.
	ChurnNone Pattern = iota
	// ChurnConstant is the classic homogeneous Poisson arrival process.
	ChurnConstant
	// ChurnFlashCrowd multiplies the arrival rate by SpikeFactor inside
	// the [SpikeStart, SpikeStart+SpikeLen) window (fractions of the
	// horizon) — a viral event hitting the swarm.
	ChurnFlashCrowd
	// ChurnDiurnal modulates the arrival rate sinusoidally:
	// rate * (1 + Amplitude*sin(2*pi*t/period)), period = Period*horizon.
	ChurnDiurnal
)

// Churn declares the peer-dynamics pattern. ArrivalRate is peers/second at
// the declared Topology.N and scales proportionally with the population;
// MeanLifespan is in seconds at ScaleFull and compresses with the horizon.
type Churn struct {
	Pattern      Pattern
	ArrivalRate  float64
	MeanLifespan float64
	AttachDegree int
	Preferential bool
	// SpikeStart, SpikeLen (fractions of the horizon) and SpikeFactor
	// shape ChurnFlashCrowd.
	SpikeStart, SpikeLen, SpikeFactor float64
	// Period (fraction of the horizon) and Amplitude in [0, 1) shape
	// ChurnDiurnal.
	Period, Amplitude float64
}

// Credit declares the currency policy: the endowment, optional taxation
// and optional periodic injection (period a fraction of the horizon), and
// the composable policy-engine pipeline.
//
// TaxRate/Inject* compile to the engine's IncomeTax + Redistribute and
// Injection stages, and Policies appends further stages in declared order
// — the same stage list on every engine (market, streaming, sharded).
type Credit struct {
	InitialWealth int64
	// TaxRate > 0 enables Sec. VI-C taxation above TaxThreshold.
	TaxRate      float64
	TaxThreshold int64
	// InjectAmount > 0 mints that many credits per peer every
	// InjectPeriod (fraction of the horizon, at least 1/shard.DefaultWindows).
	InjectAmount int64
	InjectPeriod float64
	// Policies declares additional policy-engine stages, run in order
	// after the TaxRate/Inject* stages.
	Policies []PolicySpec
	// PolicyEpoch is the engine's epoch period as a fraction of the
	// horizon, at least 1/shard.DefaultWindows (the sharded kernel's
	// default window); required when any declared policy is epoch-driven
	// (demurrage, adaptive tax, injection).
	PolicyEpoch float64
}

// PolicyKind selects a policy-engine stage.
type PolicyKind int

const (
	// PolicyTax is a fixed-rate income tax above a wealth threshold
	// (collect-only; compose with PolicyRedistribute). Rate, Threshold.
	PolicyTax PolicyKind = iota + 1
	// PolicyAdaptiveTax is the feedback controller steering the tax rate
	// toward a target wealth Gini. TargetGini, Gain, Rate (initial),
	// MinRate, MaxRate, Threshold; epoch-driven.
	PolicyAdaptiveTax
	// PolicyDemurrage decays Rate of each peer's wealth above Threshold
	// into the pot every epoch; epoch-driven.
	PolicyDemurrage
	// PolicySubsidy grants Amount credits to joining peers — minted, or
	// paid from the pot when FromPot.
	PolicySubsidy
	// PolicyInject mints Amount credits per live peer every epoch;
	// epoch-driven.
	PolicyInject
	// PolicyRedistribute drains the pot in whole one-credit-per-peer
	// rounds on every income event and epoch.
	PolicyRedistribute
)

// PolicySpec is one declarative policy-engine stage. Fields are read per
// Kind; see the PolicyKind constants.
type PolicySpec struct {
	Kind PolicyKind
	// Rate is the tax/decay rate (initial rate for PolicyAdaptiveTax).
	Rate float64
	// Threshold is the wealth level gating taxation or demurrage.
	Threshold int64
	// TargetGini and Gain shape the PolicyAdaptiveTax controller.
	TargetGini float64
	Gain       float64
	// MinRate and MaxRate clamp the adaptive controller (MaxRate 0 = 1).
	MinRate, MaxRate float64
	// Amount is the subsidy grant or per-peer injection.
	Amount int64
	// FromPot funds PolicySubsidy from the pot instead of minting.
	FromPot bool
}

// epochDriven reports whether the stage needs the engine's epoch clock.
func (ps PolicySpec) epochDriven() bool {
	switch ps.Kind {
	case PolicyAdaptiveTax, PolicyDemurrage, PolicyInject:
		return true
	default:
		return false
	}
}

// compile builds the stage.
func (ps PolicySpec) compile() (policy.Policy, error) {
	switch ps.Kind {
	case PolicyTax:
		return policy.NewIncomeTax(ps.Rate, ps.Threshold)
	case PolicyAdaptiveTax:
		return policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
			TargetGini:  ps.TargetGini,
			Gain:        ps.Gain,
			InitialRate: ps.Rate,
			MinRate:     ps.MinRate,
			MaxRate:     ps.MaxRate,
			Threshold:   ps.Threshold,
		})
	case PolicyDemurrage:
		return policy.NewDemurrage(ps.Rate, ps.Threshold)
	case PolicySubsidy:
		return policy.NewNewcomerSubsidy(ps.Amount, ps.FromPot)
	case PolicyInject:
		return policy.NewInjection(ps.Amount)
	case PolicyRedistribute:
		return policy.NewRedistribute(), nil
	default:
		return nil, fmt.Errorf("%w: policy kind %d", ErrBadScenario, int(ps.Kind))
	}
}

// enginePipeline compiles the Credit block into policy-engine stages and
// the absolute epoch period, identically for all three engines (market,
// streaming, sharded): the declarative TaxRate/Inject* knobs become
// IncomeTax + Redistribute and Injection stages ahead of the declared
// pipeline, all sharing the engine's one epoch clock.
func (c Credit) enginePipeline(horizon float64) ([]policy.Policy, float64, error) {
	var pols []policy.Policy
	epoch := 0.0
	if c.TaxRate > 0 {
		it, err := policy.NewIncomeTax(c.TaxRate, c.TaxThreshold)
		if err != nil {
			return nil, 0, err
		}
		pols = append(pols, it, policy.NewRedistribute())
	}
	if c.InjectAmount > 0 {
		if !(c.InjectPeriod > 0 && c.InjectPeriod <= 1) { // NaN fails too
			return nil, 0, fmt.Errorf("%w: injection period %v (fraction of horizon)", ErrBadScenario, c.InjectPeriod)
		}
		inj, err := policy.NewInjection(c.InjectAmount)
		if err != nil {
			return nil, 0, err
		}
		pols = append(pols, inj)
		epoch = c.InjectPeriod * horizon
	}
	if c.PolicyEpoch < 0 || c.PolicyEpoch > 1 || math.IsNaN(c.PolicyEpoch) {
		return nil, 0, fmt.Errorf("%w: policy epoch %v (fraction of horizon)", ErrBadScenario, c.PolicyEpoch)
	}
	if len(c.Policies) == 0 && c.PolicyEpoch > 0 {
		return nil, 0, fmt.Errorf("%w: policy epoch without policies", ErrBadScenario)
	}
	epochNeeded := false
	for i, ps := range c.Policies {
		p, err := ps.compile()
		if err != nil {
			return nil, 0, fmt.Errorf("policy %d: %w", i, err)
		}
		pols = append(pols, p)
		epochNeeded = epochNeeded || ps.epochDriven()
	}
	if epochNeeded && c.PolicyEpoch == 0 {
		return nil, 0, fmt.Errorf("%w: epoch-driven policy declared without PolicyEpoch", ErrBadScenario)
	}
	if c.PolicyEpoch > 0 {
		depoch := c.PolicyEpoch * horizon
		if epoch > 0 && depoch != epoch {
			return nil, 0, fmt.Errorf("%w: policy epoch %v conflicts with injection period %v (the engine has one epoch clock)", ErrBadScenario, depoch, epoch)
		}
		epoch = depoch
	}
	if epoch > 0 && epoch < horizon/shard.DefaultWindows {
		// The sharded kernel refuses an epoch shorter than its window; the
		// same bound on every engine keeps the three in agreement.
		return nil, 0, fmt.Errorf("%w: epoch %v is shorter than the default window, 1/%d of the %v horizon", ErrBadScenario, epoch, shard.DefaultWindows, horizon)
	}
	return pols, epoch, nil
}

// WorkloadKind selects the simulator a scenario compiles to.
type WorkloadKind int

const (
	// WorkloadMarket is the queue-granularity credit market.
	WorkloadMarket WorkloadKind = iota + 1
	// WorkloadStreaming is the protocol-level mesh-pull streaming market.
	WorkloadStreaming
)

// Market declares the market-workload knobs.
type Market struct {
	DefaultMu float64
	Routing   market.Routing
	// FreeRiderFrac is the probability that a peer consumes but never
	// serves (no neighbor ever buys from it).
	FreeRiderFrac float64
}

// Streaming declares the streaming-workload knobs. SourceSeeds is at the
// declared Topology.N and scales with the population.
type Streaming struct {
	StreamRate, DelaySeconds int
	UploadCap, DownloadCap   int
	SourceSeeds              int
	// SeederFrac makes that fraction of peers seeders with
	// SeederUploadCap upload slots (the swarm's chunk supply backbone).
	SeederFrac      float64
	SeederUploadCap int
	// DrainStart and DrainEnd (fractions of the horizon), when DrainEnd >
	// DrainStart, spread the seeders' departures evenly across the window
	// — the seeder-drain regime.
	DrainStart, DrainEnd float64
}

// Scenario is one declarative simulation regime.
type Scenario struct {
	// Name is the registry key; Summary is a one-line description.
	Name, Summary string
	Topology      Topology
	Churn         Churn
	Credit        Credit
	Workload      WorkloadKind
	Market        Market
	Streaming     Streaming
	// Horizon is the ScaleFull duration in seconds.
	Horizon float64
	// LargeHorizon overrides the duration at ScaleLarge (0 picks a
	// workload-appropriate default: 20s market, 40s streaming).
	LargeHorizon float64
	// XLargeHorizon overrides the duration at ScaleXLarge (0 picks a
	// workload-appropriate default: 8s market, 16s streaming — the
	// million-peer instances are event-rate bound).
	XLargeHorizon float64
	// Seed drives topology generation and the simulation.
	Seed int64
}

// dims is a scenario's concrete size at one scale.
type dims struct {
	n       int
	horizon float64
	// ratio is horizon/sc.Horizon — time-like declared quantities
	// (lifespans, injection periods) compress by it.
	ratio float64
	// popFactor is n/sc.Topology.N — population-linear declared
	// quantities (arrival rates, source seeds) scale by it.
	popFactor float64
}

func (sc *Scenario) dims(scale Scale) (dims, error) {
	if sc.Topology.N < 2 {
		return dims{}, fmt.Errorf("%w: topology N %d", ErrBadScenario, sc.Topology.N)
	}
	if !(sc.Horizon > 0) || math.IsInf(sc.Horizon, 1) {
		return dims{}, fmt.Errorf("%w: horizon %v", ErrBadScenario, sc.Horizon)
	}
	// A zero or negative override picks the scale's default horizon; NaN
	// and the infinities are refused at every scale.
	for _, h := range []float64{sc.LargeHorizon, sc.XLargeHorizon} {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return dims{}, fmt.Errorf("%w: horizon override %v", ErrBadScenario, h)
		}
	}
	d := dims{n: sc.Topology.N, horizon: sc.Horizon}
	switch scale {
	case ScaleQuick:
		d.n = sc.Topology.N / 5
		if d.n < 50 {
			d.n = 50
		}
		d.horizon = sc.Horizon / 4
	case ScaleFull:
	case ScaleLarge:
		d.n = largeN
		d.horizon = sc.LargeHorizon
		if d.horizon <= 0 {
			if sc.Workload == WorkloadStreaming {
				d.horizon = 40
			} else {
				d.horizon = 20
			}
		}
	case ScaleXLarge:
		d.n = xlargeN
		d.horizon = sc.XLargeHorizon
		if d.horizon <= 0 {
			if sc.Workload == WorkloadStreaming {
				d.horizon = 16
			} else {
				d.horizon = 8
			}
		}
	default:
		return dims{}, fmt.Errorf("%w: scale %d", ErrBadScenario, int(scale))
	}
	if sc.Workload == WorkloadStreaming {
		// Rounds are integral; keep enough of them for the playback window.
		min := float64(sc.Streaming.DelaySeconds + 2)
		if d.horizon < min {
			d.horizon = min
		}
		d.horizon = math.Floor(d.horizon)
		// The streaming engine counts rounds in an int.
		if d.horizon >= math.MaxInt {
			return dims{}, fmt.Errorf("%w: streaming horizon %v does not fit an int round count", ErrBadScenario, d.horizon)
		}
	}
	d.ratio = d.horizon / sc.Horizon
	d.popFactor = float64(d.n) / float64(sc.Topology.N)
	return d, nil
}

// rateFn compiles the churn pattern into the kernel's RateAt hook and a
// tight piecewise-constant envelope (so thinning rejects almost nothing);
// constant churn returns nils (the exact one-draw path).
func (c Churn) rateFn(rate, horizon float64) (rateAt func(float64) float64, envAt func(float64) (float64, float64), err error) {
	switch c.Pattern {
	case ChurnConstant:
		return nil, nil, nil
	case ChurnFlashCrowd:
		if !(c.SpikeFactor >= 1) || math.IsInf(c.SpikeFactor, 1) || !(c.SpikeLen > 0) || !(c.SpikeStart >= 0) || !(c.SpikeStart+c.SpikeLen <= 1) {
			return nil, nil, fmt.Errorf("%w: flash crowd spike %+v", ErrBadScenario, c)
		}
		start := c.SpikeStart * horizon
		end := start + c.SpikeLen*horizon
		peak := rate * c.SpikeFactor
		rateAt = func(t float64) float64 {
			if t >= start && t < end {
				return peak
			}
			return rate
		}
		// The rate is piecewise constant, so the envelope is the rate
		// itself: thinning accepts every candidate.
		envAt = func(t float64) (float64, float64) {
			switch {
			case t < start:
				return rate, start
			case t < end:
				return peak, end
			default:
				return rate, math.Inf(1)
			}
		}
		return rateAt, envAt, nil
	case ChurnDiurnal:
		if !(c.Amplitude >= 0 && c.Amplitude < 1) || !(c.Period > 0) || math.IsInf(c.Period, 1) {
			return nil, nil, fmt.Errorf("%w: diurnal shape %+v", ErrBadScenario, c)
		}
		period := c.Period * horizon
		amp := c.Amplitude
		rateAt = func(t float64) float64 {
			return rate * (1 + amp*math.Sin(2*math.Pi*t/period))
		}
		// Envelope: the sinusoid's maximum over each 1/32 of a period,
		// so the mean thinning acceptance stays near 1.
		seg := period / 32
		envAt = func(t float64) (float64, float64) {
			i := math.Floor(t / seg)
			a, b := i*seg, (i+1)*seg
			m := maxSin(2*math.Pi*a/period, 2*math.Pi*b/period)
			return rate * (1 + amp*m), b
		}
		return rateAt, envAt, nil
	default:
		return nil, nil, fmt.Errorf("%w: churn pattern %d", ErrBadScenario, int(c.Pattern))
	}
}

// maxSin returns the maximum of sin over [a, b] (radians, b >= a).
func maxSin(a, b float64) float64 {
	m := math.Max(math.Sin(a), math.Sin(b))
	// A crest pi/2 + 2*pi*k inside [a, b] lifts the max to exactly 1.
	k := math.Ceil((a - math.Pi/2) / (2 * math.Pi))
	if p := math.Pi/2 + 2*math.Pi*k; p <= b {
		return 1
	}
	return m
}

// MarketConfig compiles a market scenario at the given scale. The returned
// config owns a freshly generated overlay.
func (sc Scenario) MarketConfig(scale Scale) (market.Config, error) {
	if sc.Workload != WorkloadMarket {
		return market.Config{}, fmt.Errorf("%w: %s is not a market scenario", ErrBadScenario, sc.Name)
	}
	d, err := sc.dims(scale)
	if err != nil {
		return market.Config{}, err
	}
	g, err := sc.Topology.build(d.n, xrand.New(sc.Seed))
	if err != nil {
		return market.Config{}, err
	}
	cfg := market.Config{
		Graph:         g,
		InitialWealth: sc.Credit.InitialWealth,
		DefaultMu:     sc.Market.DefaultMu,
		Routing:       sc.Market.Routing,
		FreeRiderFrac: sc.Market.FreeRiderFrac,
		Horizon:       d.horizon,
		Seed:          sc.Seed + 1,
	}
	if cfg.Policies, cfg.PolicyEpoch, err = sc.Credit.enginePipeline(d.horizon); err != nil {
		return market.Config{}, err
	}
	if sc.Churn.Pattern != ChurnNone {
		// Lifespans compress with the horizon and the arrival rate scales
		// by popFactor/ratio, so the equilibrium churn population
		// (rate * lifespan) stays proportional to N and the number of
		// lifetime turnovers per run stays what the scenario declared.
		base := sc.Churn.ArrivalRate * d.popFactor / d.ratio
		rateAt, envAt, err := sc.Churn.rateFn(base, d.horizon)
		if err != nil {
			return market.Config{}, err
		}
		cfg.Churn = &market.ChurnConfig{
			ArrivalRate:  base,
			MeanLifespan: sc.Churn.MeanLifespan * d.ratio,
			AttachDegree: sc.Churn.AttachDegree,
			Preferential: sc.Churn.Preferential,
			RateAt:       rateAt,
			EnvelopeAt:   envAt,
			// The exact attachment samplers scan all N candidates per
			// join; scenario churn always takes the O(degree) sampler so
			// the 100k-peer instances stay event-dominated.
			FastAttach: true,
		}
	}
	return cfg, nil
}

// StreamingConfig compiles a streaming scenario at the given scale.
func (sc Scenario) StreamingConfig(scale Scale) (streaming.Config, error) {
	if sc.Workload != WorkloadStreaming {
		return streaming.Config{}, fmt.Errorf("%w: %s is not a streaming scenario", ErrBadScenario, sc.Name)
	}
	d, err := sc.dims(scale)
	if err != nil {
		return streaming.Config{}, err
	}
	g, err := sc.Topology.build(d.n, xrand.New(sc.Seed))
	if err != nil {
		return streaming.Config{}, err
	}
	st := sc.Streaming
	seeds := int(math.Round(float64(st.SourceSeeds) * d.popFactor))
	if seeds < 1 {
		seeds = 1
	}
	cfg := streaming.Config{
		Graph:          g,
		StreamRate:     st.StreamRate,
		DelaySeconds:   st.DelaySeconds,
		UploadCap:      st.UploadCap,
		DownloadCap:    st.DownloadCap,
		SourceSeeds:    seeds,
		InitialWealth:  sc.Credit.InitialWealth,
		HorizonSeconds: int(d.horizon),
		Seed:           sc.Seed + 1,
	}
	if cfg.Policies, cfg.PolicyEpoch, err = sc.Credit.enginePipeline(d.horizon); err != nil {
		return streaming.Config{}, err
	}
	if st.SeederFrac > 0 {
		if st.SeederFrac >= 1 || st.SeederUploadCap < 1 {
			return streaming.Config{}, fmt.Errorf("%w: seeders %+v", ErrBadScenario, st)
		}
		ids := g.Nodes()
		count := int(math.Round(st.SeederFrac * float64(len(ids))))
		if count < 1 {
			count = 1
		}
		caps := make(map[int]int, count)
		for _, id := range ids[:count] {
			caps[id] = st.SeederUploadCap
		}
		cfg.UploadCapOf = caps
		if st.DrainEnd > st.DrainStart {
			if st.DrainStart < 0 || st.DrainEnd > 1 {
				return streaming.Config{}, fmt.Errorf("%w: drain window [%v, %v]", ErrBadScenario, st.DrainStart, st.DrainEnd)
			}
			start := st.DrainStart * d.horizon
			span := (st.DrainEnd - st.DrainStart) * d.horizon
			deps := make([]streaming.Departure, 0, count)
			for i, id := range ids[:count] {
				at := int(start + span*float64(i)/float64(count))
				if at >= cfg.HorizonSeconds {
					at = cfg.HorizonSeconds - 1
				}
				deps = append(deps, streaming.Departure{ID: id, AtSecond: at})
			}
			cfg.Departures = deps
		}
	}
	return cfg, nil
}

// Outcome is the result of running a scenario: exactly one of Market,
// Streaming and Shard is set, plus the compiled size for context.
type Outcome struct {
	Name      string
	Scale     Scale
	N         int
	Horizon   float64
	Market    *market.Result
	Streaming *streaming.Result
	// Shards and Shard are set when the run used the sharded kernel
	// (Run with shards > 1); Routing names its destination-sampling mode.
	Shards  int
	Routing string
	Shard   *shard.Result
	// Timings is the sharded run's phase-level barrier-pipeline breakdown
	// (dispatch / merge / apply / churn). Diagnostic only: it is not part
	// of Report's output, so report bytes stay invariant run-to-run.
	Timings *shard.Timings
}

// Events returns the run's throughput denominator: credit transfers for
// market scenarios, paid chunk transfers for streaming ones.
func (o *Outcome) Events() uint64 {
	if o.Market != nil {
		return o.Market.SpendEvents
	}
	if o.Streaming != nil {
		return o.Streaming.ChunksTraded
	}
	if o.Shard != nil {
		return o.Shard.Transfers
	}
	return 0
}

// Report renders an outcome as a summary table plus the wealth-Gini (and,
// under churn, population) charts.
func (o *Outcome) Report(w io.Writer) error {
	tab := trace.Table{Header: []string{"metric", "value"}}
	tab.AddRow("scenario", o.Name)
	tab.AddRow("scale", o.Scale.String())
	tab.AddRow("peers (initial)", fmt.Sprint(o.N))
	tab.AddFloats("horizon (s)", o.Horizon)
	var set trace.Set
	switch {
	case o.Market != nil:
		r := o.Market
		tab.AddRow("spend events", fmt.Sprint(r.SpendEvents))
		tab.AddRow("joins / departures", fmt.Sprintf("%d / %d", r.Joins, r.Departures))
		tab.AddFloats("final wealth Gini", r.FinalGini)
		tab.AddFloats("stabilized Gini (tail-10)", r.Gini.Tail(10))
		if r.Population.Len() > 0 {
			tab.AddFloats("final population", r.Population.Last())
		}
		tab.AddRow("tax collected / redistributed", fmt.Sprintf("%d / %d", r.TaxCollected, r.TaxRedistributed))
		tab.AddRow("injected", fmt.Sprint(r.Injected))
		set.Add(r.Gini)
	case o.Streaming != nil:
		r := o.Streaming
		tab.AddRow("chunks traded / seeded", fmt.Sprintf("%d / %d", r.ChunksTraded, r.ChunksSeeded))
		tab.AddRow("stalls", fmt.Sprint(r.Stalls))
		tab.AddRow("departures", fmt.Sprint(r.Departures))
		tab.AddFloats("spending Gini", r.GiniSpending)
		tab.AddFloats("final wealth Gini", r.GiniWealth)
		tab.AddFloats("mean continuity", meanContinuity(r))
		tab.AddRow("tax collected / redistributed", fmt.Sprintf("%d / %d", r.TaxCollected, r.TaxRedistributed))
		tab.AddRow("injected", fmt.Sprint(r.Injected))
		set.Add(r.WealthGini)
	case o.Shard != nil:
		o.reportShard(&tab)
		set.Add(o.Shard.Gini)
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	if len(set.Series) > 0 && set.Series[0].Len() > 1 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := (trace.Chart{Width: 72, Height: 12}).Render(w, &set); err != nil {
			return err
		}
	}
	var popSeries *trace.Series
	switch {
	case o.Market != nil:
		popSeries = o.Market.Population
	case o.Shard != nil:
		popSeries = o.Shard.Population
	}
	if popSeries != nil && popSeries.Len() > 1 {
		var pop trace.Set
		pop.Add(popSeries)
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := (trace.Chart{Width: 72, Height: 10}).Render(w, &pop); err != nil {
			return err
		}
	}
	return nil
}

// meanContinuity averages the per-peer playback continuity, summing in
// ascending peer-id order: a float sum in map order can differ in the last
// bit from run to run, enough to flip the report's fourth decimal.
func meanContinuity(r *streaming.Result) float64 {
	if len(r.Continuity) == 0 {
		return math.NaN()
	}
	ids := make([]int, 0, len(r.Continuity))
	for id := range r.Continuity {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sum float64
	for _, id := range ids {
		sum += r.Continuity[id]
	}
	return sum / float64(len(r.Continuity))
}

// --- registry ---

var registry = map[string]Scenario{}

// Register adds a scenario to the registry; duplicate names panic (preset
// registration is an init-time affair).
func Register(sc Scenario) {
	if sc.Name == "" {
		panic("scenario: empty name")
	}
	if _, dup := registry[sc.Name]; dup {
		panic("scenario: duplicate " + sc.Name)
	}
	registry[sc.Name] = sc
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, error) {
	sc, ok := registry[name]
	if !ok {
		return Scenario{}, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return sc, nil
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunNamed looks a scenario up and runs it on the single-threaded
// engines.
func RunNamed(name string, scale Scale) (*Outcome, error) {
	sc, err := Get(name)
	if err != nil {
		return nil, err
	}
	return Run(sc, scale, 1, Resume{})
}
