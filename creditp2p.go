// Package creditp2p is a library for studying the sustainability of
// credit-incentivized peer-to-peer content distribution, reproducing Qiu,
// Huang, Wu, Li and Lau, "Exploring the Sustainability of
// Credit-incentivized Peer-to-Peer Content Distribution" (ICDCSW 2012).
//
// The package offers three levels of entry:
//
//   - Theory: map a P2P market onto a closed Jackson queueing network
//     (BuildModel), compute its equilibrium, the Eq. (4) condensation
//     threshold, exact finite-network wealth marginals and Gini indices
//     (Analyze).
//   - Simulation: run the credit-market simulator at queue granularity
//     (RunMarket) or the protocol-faithful mesh-pull streaming market
//     (RunStreaming), with dynamic spending rates, churn, and economic
//     policies composed as EconomicPolicy stages on the config's Policies
//     pipeline: Sec. VI-C taxation is IncomeTaxPolicy followed by
//     RedistributePolicy, periodic injection is InjectionPolicy.
//   - Experiments: regenerate every table and figure of the paper
//     (RunExperiment, Experiments).
//
// All computation is deterministic given the seeds embedded in configs.
package creditp2p

import (
	"io"

	"creditp2p/internal/core"
	"creditp2p/internal/credit"
	"creditp2p/internal/experiments"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/scenario"
	"creditp2p/internal/stats"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// Re-exported core types. The underlying implementations live in internal
// packages; these aliases are the supported public surface.
type (
	// Graph is a mutable undirected overlay topology.
	Graph = topology.Graph
	// ScaleFreeConfig parameterizes scale-free overlay generation.
	ScaleFreeConfig = topology.ScaleFreeConfig

	// Model is the Jackson-network image of a P2P market (Table I).
	Model = core.Model
	// ModelConfig configures BuildModel.
	ModelConfig = core.ModelConfig
	// Report is the sustainability analysis of a market.
	Report = core.Report
	// AnalyzeOptions tunes Analyze.
	AnalyzeOptions = core.AnalyzeOptions
	// Density is a utilization density over [0,1] for the Eq. (4) threshold.
	Density = core.Density
	// ThresholdResult is the Eq. (4) condensation threshold verdict.
	ThresholdResult = core.ThresholdResult

	// MarketConfig configures the queue-granularity market simulator.
	MarketConfig = market.Config
	// Routing selects the market simulator's purchase-splitting policy.
	Routing = market.Routing
	// MarketResult is the market simulator output.
	MarketResult = market.Result
	// ChurnConfig enables open-network peer dynamics.
	ChurnConfig = market.ChurnConfig

	// StreamingConfig configures the mesh-pull streaming market.
	StreamingConfig = streaming.Config
	// StreamingResult is the streaming simulator output.
	StreamingResult = streaming.Result

	// Ledger tracks peer credit balances with conservation checking.
	Ledger = credit.Ledger
	// Pricing quotes per-chunk prices.
	Pricing = credit.Pricing
	// UniformPricing charges a flat per-chunk price.
	UniformPricing = credit.UniformPricing
	// PerPeerPricing lets each seller set a flat price.
	PerPeerPricing = credit.PerPeerPricing
	// DynamicSpending is the Sec. VI-D wealth-coupled spending policy.
	DynamicSpending = credit.DynamicSpending

	// EconomicPolicy is one composable policy-engine stage; set
	// MarketConfig.Policies / StreamingConfig.Policies to a pipeline of
	// them (with MarketConfig.PolicyEpoch / StreamingConfig.PolicyEpoch
	// for epoch-driven stages).
	EconomicPolicy = policy.Policy
	// IncomeTaxPolicy taxes income above a wealth threshold with a single
	// binomial draw per payment (collect-only; compose with
	// RedistributePolicy).
	IncomeTaxPolicy = policy.IncomeTax
	// AdaptiveTaxPolicy steers its tax rate toward a target wealth Gini.
	AdaptiveTaxPolicy = policy.AdaptiveTax
	// AdaptiveTaxConfig parameterizes the adaptive controller.
	AdaptiveTaxConfig = policy.AdaptiveTaxConfig
	// DemurragePolicy decays idle hoards into the pot every epoch.
	DemurragePolicy = policy.Demurrage
	// NewcomerSubsidyPolicy grants joining peers credits (minted or
	// pot-funded).
	NewcomerSubsidyPolicy = policy.NewcomerSubsidy
	// InjectionPolicy mints credits into every live peer per epoch.
	InjectionPolicy = policy.Injection
	// RedistributePolicy drains the pot in one-credit-per-peer rounds.
	RedistributePolicy = policy.Redistribute

	// PolicySpec declares one policy stage on a Scenario's Credit.
	PolicySpec = scenario.PolicySpec
	// PolicyKind selects the stage a PolicySpec compiles to.
	PolicyKind = scenario.PolicyKind
	// ScenarioCredit is a Scenario's declarative currency policy.
	ScenarioCredit = scenario.Credit
	// ScenarioTopology declares a Scenario's overlay generator.
	ScenarioTopology = scenario.Topology
	// ScenarioChurn declares a Scenario's peer-dynamics pattern.
	ScenarioChurn = scenario.Churn
	// ScenarioMarket declares a Scenario's market-workload knobs.
	ScenarioMarket = scenario.Market
	// ScenarioStreaming declares a Scenario's streaming-workload knobs.
	ScenarioStreaming = scenario.Streaming

	// LorenzPoint is one point of a Lorenz curve.
	LorenzPoint = stats.LorenzPoint

	// RNG is the deterministic random source used across the library.
	RNG = xrand.RNG

	// Experiment is one reproducible paper artifact.
	Experiment = experiments.Experiment
	// Preset selects experiment scale (Quick or Full).
	Preset = experiments.Preset

	// Scenario is one declarative simulation regime: topology generator +
	// churn pattern + credit policy + workload + duration/seed.
	Scenario = scenario.Scenario
	// ScenarioOutcome is the result of running a scenario.
	ScenarioOutcome = scenario.Outcome
)

// Routing policies for BuildModel.
const (
	// RoutingUniform spends equally across neighbors.
	RoutingUniform = core.RoutingUniform
	// RoutingDegreeWeighted spends proportionally to neighbor degree.
	RoutingDegreeWeighted = core.RoutingDegreeWeighted
)

// Routing policies for the market simulator.
const (
	// RouteUniform buys uniformly from neighbors.
	RouteUniform = market.RouteUniform
	// RouteDegreeWeighted buys proportionally to neighbor degree.
	RouteDegreeWeighted = market.RouteDegreeWeighted
	// RouteAvailability buys proportionally to neighbors' live inventory.
	RouteAvailability = market.RouteAvailability
)

// Experiment presets.
const (
	// Quick runs scaled-down experiment configurations.
	Quick = experiments.Quick
	// Full runs paper-scale configurations.
	Full = experiments.Full
	// Large runs 100k-peer configurations on the scale engine.
	Large = experiments.Large
	// XLarge runs million-peer configurations on the scale engine (a few
	// GB of RSS, minutes per run). Scenario runs at this preset also set
	// FastSampling, which switches degree-weighted routing to its Fenwick
	// sampler; availability routing always scans.
	XLarge = experiments.XLarge
)

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return xrand.New(seed) }

// NewScaleFreeOverlay generates the paper's overlay: power-law degrees with
// the given shape (2.5 in the paper) and mean degree (20 in the paper).
func NewScaleFreeOverlay(n int, alpha, meanDegree float64, r *RNG) (*Graph, error) {
	return topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: alpha, MeanDegree: meanDegree}, r)
}

// NewRegularOverlay generates a random d-regular overlay — the
// symmetric-utilization substrate.
func NewRegularOverlay(n, d int, r *RNG) (*Graph, error) {
	return topology.RandomRegular(n, d, r)
}

// BuildModel maps a P2P market onto its closed Jackson network: transfer
// matrix, equilibrium income rates (Lemma 1) and normalized utilizations
// (Eq. 2).
func BuildModel(cfg ModelConfig) (*Model, error) { return core.BuildModel(cfg) }

// Analyze produces the sustainability report of a market at the given
// average wealth: condensation verdicts (Theorems 2-3), expected
// equilibrium Gini, top-share, and exchange efficiency (Eq. 9).
func Analyze(m *Model, avgWealth float64, opts AnalyzeOptions) (*Report, error) {
	return core.Analyze(m, avgWealth, opts)
}

// Threshold computes the Eq. (4) condensation threshold of a utilization
// density.
func Threshold(f Density) ThresholdResult { return core.Threshold(f) }

// Declarative policy kinds for PolicySpec.Kind.
const (
	// PolicyTax is a fixed-rate income tax above a wealth threshold.
	PolicyTax = scenario.PolicyTax
	// PolicyAdaptiveTax steers the tax rate toward a target wealth Gini.
	PolicyAdaptiveTax = scenario.PolicyAdaptiveTax
	// PolicyDemurrage decays wealth above a threshold every epoch.
	PolicyDemurrage = scenario.PolicyDemurrage
	// PolicySubsidy grants joining peers credits.
	PolicySubsidy = scenario.PolicySubsidy
	// PolicyInject mints credits into every live peer per epoch.
	PolicyInject = scenario.PolicyInject
	// PolicyRedistribute drains the pot in whole per-peer rounds.
	PolicyRedistribute = scenario.PolicyRedistribute
)

// Scenario workload and topology kinds for ad-hoc scenario definitions.
const (
	// WorkloadMarket compiles a scenario to the market simulator.
	WorkloadMarket = scenario.WorkloadMarket
	// WorkloadStreaming compiles a scenario to the streaming simulator.
	WorkloadStreaming = scenario.WorkloadStreaming
	// TopoScaleFree draws a power-law degree sequence.
	TopoScaleFree = scenario.TopoScaleFree
	// TopoRegular builds a random d-regular overlay.
	TopoRegular = scenario.TopoRegular
)

// NewIncomeTaxPolicy validates and builds a fixed-rate income-tax stage.
func NewIncomeTaxPolicy(rate float64, threshold int64) (*IncomeTaxPolicy, error) {
	return policy.NewIncomeTax(rate, threshold)
}

// NewAdaptiveTaxPolicy validates and builds the Gini-targeting controller.
func NewAdaptiveTaxPolicy(cfg AdaptiveTaxConfig) (*AdaptiveTaxPolicy, error) {
	return policy.NewAdaptiveTax(cfg)
}

// NewDemurragePolicy validates and builds a demurrage stage: rate of each
// balance's excess over exempt decays into the pot per epoch.
func NewDemurragePolicy(rate float64, exempt int64) (*DemurragePolicy, error) {
	return policy.NewDemurrage(rate, exempt)
}

// NewNewcomerSubsidyPolicy validates and builds a join-grant stage.
func NewNewcomerSubsidyPolicy(grant int64, fromPot bool) (*NewcomerSubsidyPolicy, error) {
	return policy.NewNewcomerSubsidy(grant, fromPot)
}

// NewInjectionPolicy validates and builds a per-epoch minting stage.
func NewInjectionPolicy(amount int64) (*InjectionPolicy, error) {
	return policy.NewInjection(amount)
}

// NewRedistributePolicy builds the pot-draining stage.
func NewRedistributePolicy() *RedistributePolicy { return policy.NewRedistribute() }

// RunPolicySweep runs the policy-parameter sweep experiment over a custom
// tax-rate grid (cmd/experiments -taxrates), writing the comparison table
// and chart to w.
func RunPolicySweep(rates []float64, p Preset, w io.Writer) error {
	return experiments.PolicySweep(rates, p, w)
}

// RunMarket executes the queue-granularity credit-market simulation.
func RunMarket(cfg MarketConfig) (*MarketResult, error) { return market.Run(cfg) }

// RunStreaming executes the protocol-level mesh-pull streaming market.
func RunStreaming(cfg StreamingConfig) (*StreamingResult, error) { return streaming.Run(cfg) }

// Gini returns the Gini index of a non-negative sample (0 = equality,
// near 1 = extreme condensation).
func Gini(values []float64) (float64, error) { return stats.Gini(values) }

// Lorenz returns the Lorenz curve of a non-negative sample.
func Lorenz(values []float64) ([]LorenzPoint, error) { return stats.Lorenz(values) }

// Experiments lists every reproducible paper artifact.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one paper artifact by id (fig1..fig11,
// exact-vs-approx, threshold, pricing), writing tables and charts to w.
func RunExperiment(id string, p Preset, w io.Writer) error {
	e, err := experiments.ByID(id)
	if err != nil {
		return err
	}
	return e.Run(p, w)
}

// RunAllExperiments regenerates every artifact under the preset.
func RunAllExperiments(p Preset, w io.Writer) error {
	return experiments.RunAll(p, w)
}

// Scenarios lists every registered scenario preset sorted by name.
func Scenarios() []Scenario { return scenario.All() }

// RunScenario runs a registered scenario preset by name at the given
// experiment preset scale, writing its report to w.
func RunScenario(name string, p Preset, w io.Writer) (*ScenarioOutcome, error) {
	out, err := scenario.RunNamed(name, p)
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := out.Report(w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunScenarioConfig runs an ad-hoc (unregistered) scenario definition.
func RunScenarioConfig(sc Scenario, p Preset) (*ScenarioOutcome, error) {
	return scenario.Run(sc, p, 1, scenario.Resume{})
}
