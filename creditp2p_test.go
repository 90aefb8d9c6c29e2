package creditp2p

import (
	"bytes"
	"math"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	// The README quickstart: overlay -> model -> analysis -> simulation.
	r := NewRNG(1)
	g, err := NewRegularOverlay(60, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	mu := make(map[int]float64, g.NumNodes())
	for _, id := range g.Nodes() {
		mu[id] = 1
	}
	model, err := BuildModel(ModelConfig{Graph: g, Mu: mu, Routing: RoutingUniform})
	if err != nil {
		t.Fatal(err)
	}
	report, err := Analyze(model, 10, AnalyzeOptions{GiniDraws: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Empirical.Condenses {
		t.Error("regular symmetric market predicted to condense")
	}
	res, err := RunMarket(MarketConfig{
		Graph:         g,
		InitialWealth: 10,
		DefaultMu:     1,
		Horizon:       2000,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Gini.Tail(10)-report.ExpectedGini) > 0.12 {
		t.Errorf("simulated Gini %v vs analytic %v", res.Gini.Tail(10), report.ExpectedGini)
	}
}

func TestFacadeGiniLorenz(t *testing.T) {
	g, err := Gini([]float64{0, 0, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("Gini = %v, want 0.75", g)
	}
	curve, err := Lorenz([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Errorf("Lorenz has %d points", len(curve))
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	all := Experiments()
	if len(all) < 14 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	var buf bytes.Buffer
	if err := RunExperiment("fig4", Quick, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("fig4 produced no output")
	}
	if err := RunExperiment("nope", Quick, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeThreshold(t *testing.T) {
	res := Threshold(densityBeta{alpha: 2})
	if !res.Finite || math.Abs(res.T-0.5) > 0.02 {
		t.Errorf("threshold = %+v, want ~0.5", res)
	}
}

// densityBeta implements Density through the public alias.
type densityBeta struct{ alpha float64 }

func (d densityBeta) Eval(w float64) float64 {
	if w < 0 || w > 1 {
		return 0
	}
	return (d.alpha + 1) * math.Pow(1-w, d.alpha)
}

func TestFacadeStreaming(t *testing.T) {
	r := NewRNG(5)
	g, err := NewRegularOverlay(80, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStreaming(StreamingConfig{
		Graph:          g,
		StreamRate:     1,
		DelaySeconds:   10,
		UploadCap:      1,
		DownloadCap:    2,
		SourceSeeds:    3,
		InitialWealth:  12,
		HorizonSeconds: 400,
		Seed:           6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksTraded == 0 {
		t.Error("no chunks traded")
	}
}

func TestFacadeTaxPolicy(t *testing.T) {
	if _, err := NewIncomeTaxPolicy(2, 10); err == nil {
		t.Error("invalid tax rate accepted")
	}
	tax, err := NewIncomeTaxPolicy(0.1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tax.Collected() != 0 {
		t.Error("fresh policy has collected credits")
	}
}

// TestFacadePolicyPipeline exercises the policy-engine surface through the
// facade: constructors, a market run with a composed pipeline, the
// streaming counters, and the scenario policy kinds.
func TestFacadePolicyPipeline(t *testing.T) {
	rng := NewRNG(61)
	g, err := NewRegularOverlay(60, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	tax, err := NewIncomeTaxPolicy(0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	dem, err := NewDemurragePolicy(0.05, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMarket(MarketConfig{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Horizon:       400,
		Policies:      []EconomicPolicy{tax, dem, NewRedistributePolicy()},
		PolicyEpoch:   20,
		Seed:          62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaxCollected == 0 || res.TaxRedistributed == 0 {
		t.Errorf("pipeline inactive: collected %d redistributed %d", res.TaxCollected, res.TaxRedistributed)
	}

	inj, err := NewInjectionPolicy(1)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewRegularOverlay(40, 6, NewRNG(63))
	if err != nil {
		t.Fatal(err)
	}
	stax, err := NewIncomeTaxPolicy(0.3, 12)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := RunStreaming(StreamingConfig{
		Graph:          g2,
		StreamRate:     1,
		DelaySeconds:   6,
		UploadCap:      1,
		DownloadCap:    2,
		SourceSeeds:    2,
		InitialWealth:  10,
		HorizonSeconds: 60,
		Policies:       []EconomicPolicy{stax, NewRedistributePolicy(), inj},
		PolicyEpoch:    10,
		Seed:           64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Injected == 0 {
		t.Error("streaming injection minted nothing")
	}

	// Declarative kinds round-trip through an ad-hoc scenario.
	sc := Scenario{
		Name:     "facade-policy",
		Workload: WorkloadMarket,
		Topology: ScenarioTopology{Kind: TopoRegular, N: 100, Degree: 8},
		Market:   ScenarioMarket{DefaultMu: 1},
		Credit: ScenarioCredit{
			InitialWealth: 20,
			Policies: []PolicySpec{
				{Kind: PolicyTax, Rate: 0.2, Threshold: 20},
				{Kind: PolicyRedistribute},
			},
		},
		Horizon: 200,
		Seed:    65,
	}
	out, err := RunScenarioConfig(sc, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if out.Market == nil || out.Market.SpendEvents == 0 {
		t.Fatal("ad-hoc policy scenario executed nothing")
	}
}
