package market

import (
	"errors"
	"math"
	"testing"

	"creditp2p/internal/credit"
	"creditp2p/internal/policy"
	"creditp2p/internal/sim"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

func regularGraph(t *testing.T, n, d int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func scaleFreeGraph(t *testing.T, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 10}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	g := regularGraph(t, 10, 4, 1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil-graph", Config{InitialWealth: 1, DefaultMu: 1, Horizon: 10}},
		{"negative-wealth", Config{Graph: g, InitialWealth: -1, DefaultMu: 1, Horizon: 10}},
		{"zero-mu", Config{Graph: g, InitialWealth: 1, Horizon: 10}},
		{"zero-horizon", Config{Graph: g, InitialWealth: 1, DefaultMu: 1}},
		{"bad-routing", Config{Graph: g, InitialWealth: 1, DefaultMu: 1, Horizon: 10, Routing: 99}},
		{"bad-churn", Config{Graph: g, InitialWealth: 1, DefaultMu: 1, Horizon: 10,
			Churn: &ChurnConfig{ArrivalRate: 1, MeanLifespan: 0, AttachDegree: 2}}},
		{"bad-snapshot", Config{Graph: g, InitialWealth: 1, DefaultMu: 1, Horizon: 10,
			SnapshotTimes: []float64{50}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestRunBoundsInitialWealth pins that an endowment whose balance
// histogram would need terabytes fails as a config error from the kernel,
// instead of killing the process out of memory.
func TestRunBoundsInitialWealth(t *testing.T) {
	g := regularGraph(t, 10, 4, 1)
	if _, err := Run(Config{Graph: g, InitialWealth: 1 << 40, DefaultMu: 1, Horizon: 10}); !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("error = %v, want sim.ErrBadConfig", err)
	}
}

func TestRunConservesCredits(t *testing.T) {
	g := regularGraph(t, 50, 6, 2)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 10,
		DefaultMu:     1,
		Horizon:       500,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range res.FinalWealth {
		if b < 0 {
			t.Fatalf("negative balance %d", b)
		}
		total += b
	}
	if total != 500 {
		t.Errorf("total credits = %d, want 500 (closed market)", total)
	}
	if res.SpendEvents == 0 {
		t.Error("no spend events fired")
	}
}

func TestGiniRisesFromZeroAndStabilizes(t *testing.T) {
	// All peers start equal (Gini 0); trading must raise the Gini toward
	// the symmetric equilibrium ~0.5 and then hold it (Figs. 5–7).
	g := regularGraph(t, 100, 10, 4)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Horizon:       4000,
		SampleEvery:   50,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Gini.Values[0]
	tail := res.Gini.Tail(10)
	if first > 0.3 {
		t.Errorf("Gini at first sample = %v, expected near 0 start", first)
	}
	if tail < 0.35 || tail > 0.65 {
		t.Errorf("stabilized Gini = %v, want ~0.5 (symmetric equilibrium)", tail)
	}
	// Stability: last quarter stays in a narrow band.
	n := res.Gini.Len()
	for _, v := range res.Gini.Values[3*n/4:] {
		if math.Abs(v-tail) > 0.15 {
			t.Errorf("late Gini %v strays from tail mean %v", v, tail)
		}
	}
}

func TestSimulationMatchesExactEquilibriumGini(t *testing.T) {
	// Integration with the theory: the long-run simulated Gini must match
	// the exact product-form equilibrium Gini from the closed Jackson
	// network (paper Sec. IV: the simulator IS the queueing network).
	g := regularGraph(t, 60, 6, 7)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 5,
		DefaultMu:     1,
		Horizon:       6000,
		SampleEvery:   50,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exact symmetric equilibrium via uniform-composition sampling.
	simGini := res.Gini.Tail(20)
	exact := exactSymmetricGini(t, 60, 300, 500)
	if math.Abs(simGini-exact) > 0.08 {
		t.Errorf("simulated Gini %v vs exact equilibrium %v", simGini, exact)
	}
}

func TestSnapshotsSortedAndTimed(t *testing.T) {
	g := regularGraph(t, 30, 4, 9)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 5,
		DefaultMu:     1,
		Horizon:       100,
		SnapshotTimes: []float64{50, 10, 90},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(res.Snapshots))
	}
	if res.Snapshots[0].Time != 10 || res.Snapshots[2].Time != 90 {
		t.Errorf("snapshot times = %v, %v, %v", res.Snapshots[0].Time, res.Snapshots[1].Time, res.Snapshots[2].Time)
	}
	for _, snap := range res.Snapshots {
		if len(snap.Sorted) != 30 {
			t.Errorf("snapshot at %v has %d peers", snap.Time, len(snap.Sorted))
		}
		for i := 1; i < len(snap.Sorted); i++ {
			if snap.Sorted[i] < snap.Sorted[i-1] {
				t.Fatalf("snapshot at %v not sorted", snap.Time)
			}
		}
	}
}

func TestZeroWealthMarketIsInert(t *testing.T) {
	g := regularGraph(t, 10, 4, 5)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 0,
		DefaultMu:     1,
		Horizon:       50,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpendEvents != 0 {
		t.Errorf("spend events = %d in a creditless market", res.SpendEvents)
	}
	if res.FinalGini != 0 {
		t.Errorf("final Gini = %v, want 0", res.FinalGini)
	}
}

func TestAsymmetricMuCondensesMoreThanSymmetric(t *testing.T) {
	// Heterogeneous spending rates => asymmetric utilization => wealth
	// parks on slow spenders; Gini above the symmetric ~0.5 (Fig. 8 vs 7).
	gSym := regularGraph(t, 80, 8, 21)
	sym, err := Run(Config{
		Graph:         gSym,
		InitialWealth: 30,
		DefaultMu:     1,
		Horizon:       3000,
		Seed:          22,
	})
	if err != nil {
		t.Fatal(err)
	}
	gAsym := regularGraph(t, 80, 8, 21)
	asym, err := Run(Config{
		Graph:         gAsym,
		InitialWealth: 30,
		DefaultMu:     1,
		BaseMu:        TwoClassMuMap(gAsym, 0.2, 2.0, 0.5, xrand.New(23)),
		Horizon:       3000,
		Seed:          24,
	})
	if err != nil {
		t.Fatal(err)
	}
	if asym.Gini.Tail(10) <= sym.Gini.Tail(10)+0.05 {
		t.Errorf("asymmetric Gini %v not above symmetric %v", asym.Gini.Tail(10), sym.Gini.Tail(10))
	}
}

func TestScaleFreeDegreeRoutingSkewsWealth(t *testing.T) {
	// On a scale-free overlay, stationary income is degree-proportional:
	// hubs end wealthy. Check the top-degree peer ends above the median.
	g := scaleFreeGraph(t, 150, 31)
	hub, hubDeg := 0, 0
	for _, id := range g.Nodes() {
		if d := g.Degree(id); d > hubDeg {
			hub, hubDeg = id, d
		}
	}
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 50,
		DefaultMu:     1,
		Horizon:       3000,
		Seed:          32,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, b := range res.FinalWealth {
		sum += b
	}
	mean := float64(sum) / float64(len(res.FinalWealth))
	if got := float64(res.FinalWealth[hub]); got < 2*mean {
		t.Errorf("hub wealth %v not ≫ mean %v (degree %d)", got, mean, hubDeg)
	}
}

func TestTaxationReducesGini(t *testing.T) {
	// Fig. 9: taxation inhibits condensation in an asymmetric-utilization
	// market, and a threshold near the average wealth outperforms a low
	// one (Sec. VI-C).
	targetU, err := UniformUtilizations(regularGraph(t, 100, 10, 41), 0.25, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	build := func(tax []policy.Policy) float64 {
		g := regularGraph(t, 100, 10, 41)
		mu, err := MuForUtilization(g, RouteUniform, targetU, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 50,
			DefaultMu:     1,
			BaseMu:        mu,
			Policies:      tax,
			Horizon:       8000,
			Seed:          43,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gini.Tail(10)
	}
	noTax := build(nil)
	taxHigh := taxStages(t, 0.25, 40)
	withTax := build(taxHigh)
	if withTax >= noTax-0.02 {
		t.Errorf("taxed Gini %v not clearly below untaxed %v", withTax, noTax)
	}
	if taxHigh[0].(*policy.IncomeTax).Collected() == 0 {
		t.Error("tax never collected")
	}
}

func TestDynamicSpendingReducesGini(t *testing.T) {
	// Fig. 10: wealth-coupled spending rates drain rich peers faster and
	// lower the stabilized Gini.
	run := func(policy credit.SpendingPolicy) float64 {
		g := regularGraph(t, 80, 8, 51)
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 30,
			DefaultMu:     1,
			BaseMu:        TwoClassMuMap(g, 0.2, 2.0, 0.5, xrand.New(52)),
			Spending:      policy,
			Horizon:       3000,
			Seed:          53,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gini.Tail(10)
	}
	fixed := run(nil)
	dynamic := run(credit.DynamicSpending{M: 30})
	if dynamic >= fixed-0.03 {
		t.Errorf("dynamic-spending Gini %v not clearly below fixed %v", dynamic, fixed)
	}
}

func TestChurnMarket(t *testing.T) {
	// Fig. 11: open market with arrivals and departures keeps running,
	// population hovers near arrival_rate * lifespan, credits stay
	// conserved (mint on join, burn on leave).
	g := regularGraph(t, 100, 8, 61)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 10,
		DefaultMu:     1,
		Horizon:       2000,
		SampleEvery:   20,
		Churn: &ChurnConfig{
			ArrivalRate:  0.5,
			MeanLifespan: 200,
			AttachDegree: 4,
			Preferential: true,
		},
		Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 || res.Departures == 0 {
		t.Fatalf("no churn: joins=%d departures=%d", res.Joins, res.Departures)
	}
	// Expected steady population = rate*lifespan = 100.
	tailPop := res.Population.Tail(10)
	if tailPop < 50 || tailPop > 200 {
		t.Errorf("steady population = %v, want ~100", tailPop)
	}
}

func TestChurnLowersGiniVsStatic(t *testing.T) {
	// Sec. VI-E: peers departing before accumulating too much keep the
	// distribution flatter than the static market.
	static := func() float64 {
		g := scaleFreeGraph(t, 120, 71)
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 50,
			DefaultMu:     1,
			Horizon:       2500,
			Seed:          72,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gini.Tail(10)
	}()
	churned := func() float64 {
		g := scaleFreeGraph(t, 120, 71)
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 50,
			DefaultMu:     1,
			Horizon:       2500,
			Churn: &ChurnConfig{
				ArrivalRate:  0.6,
				MeanLifespan: 200,
				AttachDegree: 10,
				Preferential: true,
			},
			Seed: 72,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gini.Tail(10)
	}()
	if churned >= static {
		t.Errorf("churned Gini %v not below static %v", churned, static)
	}
}

func TestSpendingRatesMeasured(t *testing.T) {
	g := regularGraph(t, 40, 4, 81)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     2,
		Horizon:       1000,
		Seed:          82,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.SpendingRate {
		if r < 0 {
			t.Fatalf("negative spending rate %v", r)
		}
		sum += r
	}
	mean := sum / float64(len(res.SpendingRate))
	// Every peer is nearly always solvent at c=20, so rates approach mu=2.
	if mean < 1 || mean > 2.2 {
		t.Errorf("mean spending rate = %v, want near mu=2", mean)
	}
}

func TestInjectionGrowsSupply(t *testing.T) {
	g := regularGraph(t, 40, 4, 95)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 10,
		DefaultMu:     1,
		Horizon:       1000,
		Policies:      []policy.Policy{injection(t, 2)},
		PolicyEpoch:   100,
		Seed:          96,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 injection rounds x 2 credits x 40 peers = 800 minted.
	if res.Injected != 800 {
		t.Errorf("Injected = %d, want 800", res.Injected)
	}
	var total int64
	for _, b := range res.FinalWealth {
		total += b
	}
	if total != 40*10+800 {
		t.Errorf("final supply = %d, want 1200", total)
	}
	// Supply series monotone non-decreasing.
	for i := 1; i < res.Supply.Len(); i++ {
		if res.Supply.Values[i] < res.Supply.Values[i-1] {
			t.Fatalf("supply decreased at sample %d", i)
		}
	}
}

// TestInjectionValidation covers the injection pipeline's error paths: a
// zero amount is refused by the stage, a negative epoch by the market.
func TestInjectionValidation(t *testing.T) {
	if _, err := policy.NewInjection(0); !errors.Is(err, policy.ErrBadPolicy) {
		t.Errorf("zero amount error = %v, want ErrBadPolicy", err)
	}
	g := regularGraph(t, 10, 4, 97)
	if _, err := Run(Config{
		Graph: g, InitialWealth: 1, DefaultMu: 1, Horizon: 10,
		Policies: []policy.Policy{injection(t, 1)}, PolicyEpoch: -1,
	}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative period error = %v, want ErrBadConfig", err)
	}
}

func TestInjectionWakesBankruptPeers(t *testing.T) {
	// A market started with zero wealth is inert until the first
	// injection arrives; afterwards trading must begin.
	g := regularGraph(t, 20, 4, 98)
	res, err := Run(Config{
		Graph:         g,
		InitialWealth: 0,
		DefaultMu:     1,
		Horizon:       500,
		Policies:      []policy.Policy{injection(t, 5)},
		PolicyEpoch:   50,
		Seed:          99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpendEvents == 0 {
		t.Error("injection did not revive a creditless market")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		g := regularGraph(t, 40, 4, 91)
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 10,
			DefaultMu:     1,
			Horizon:       300,
			Seed:          92,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SpendEvents != b.SpendEvents {
		t.Errorf("spend events differ: %d vs %d", a.SpendEvents, b.SpendEvents)
	}
	if a.FinalGini != b.FinalGini {
		t.Errorf("final Gini differs: %v vs %v", a.FinalGini, b.FinalGini)
	}
	for id, wa := range a.FinalWealth {
		if b.FinalWealth[id] != wa {
			t.Fatalf("wealth differs at peer %d: %d vs %d", id, wa, b.FinalWealth[id])
		}
	}
}
