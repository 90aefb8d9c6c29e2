package market

import (
	"math"
	"testing"

	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// runSim drives a validated config through the exact Run() sequence but
// keeps the simulation visible for white-box assertions.
func runSim(t *testing.T, cfg Config) (*simulation, *Result) {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Churn == nil {
		s.prebuildNeighborhoods()
	}
	if err := s.k.Start(); err != nil {
		t.Fatal(err)
	}
	s.k.Run()
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	return s, s.res
}

func fastChurnConfig(t *testing.T, routing Routing, fast bool, seed int64) Config {
	t.Helper()
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 400, Alpha: 2.5, MeanDegree: 12}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Routing:       routing,
		FastSampling:  fast,
		Horizon:       400,
		Churn: &ChurnConfig{
			ArrivalRate:  1,
			MeanLifespan: 120,
			AttachDegree: 4,
			Preferential: true,
		},
		Seed: seed + 1,
	}
}

// TestFastSamplingGoldenDeterminism pins the fast-sampler mode with its own
// goldens: same-seed runs are byte-identical for both weighted routings
// (availability routing ignores the flag), closed and churning,
// free-riders included.
func TestFastSamplingGoldenDeterminism(t *testing.T) {
	build := func(name string) Config {
		switch name {
		case "degree-churn":
			return fastChurnConfig(t, RouteDegreeWeighted, true, 601)
		case "availability-churn":
			return fastChurnConfig(t, RouteAvailability, true, 603)
		case "degree-closed-freeriders":
			cfg := fastChurnConfig(t, RouteDegreeWeighted, true, 605)
			cfg.Churn = nil
			cfg.FreeRiderFrac = 0.2
			return cfg
		case "availability-closed":
			cfg := fastChurnConfig(t, RouteAvailability, true, 607)
			cfg.Churn = nil
			return cfg
		default:
			t.Fatalf("unknown case %s", name)
			return Config{}
		}
	}
	for _, name := range []string{
		"degree-churn", "availability-churn",
		"degree-closed-freeriders", "availability-closed",
	} {
		t.Run(name, func(t *testing.T) {
			a, err := Run(build(name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(build(name))
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, a, b)
		})
	}
}

// TestFastSamplingMatchesExactAggregates is the macro equivalence check:
// the fast degree sampler draws a different sequence but the same
// distribution, so closed-market aggregates must land close to the exact
// sampler's.
func TestFastSamplingMatchesExactAggregates(t *testing.T) {
	exact := fastChurnConfig(t, RouteDegreeWeighted, false, 611)
	exact.Churn = nil
	fast := fastChurnConfig(t, RouteDegreeWeighted, true, 611)
	fast.Churn = nil
	re, err := Run(exact)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(re.FinalGini - rf.FinalGini); d > 0.08 {
		t.Errorf("final Gini exact %.4f vs fast %.4f (|d|=%.4f)", re.FinalGini, rf.FinalGini, d)
	}
	rel := math.Abs(float64(re.SpendEvents)-float64(rf.SpendEvents)) / float64(re.SpendEvents)
	if rel > 0.05 {
		t.Errorf("spend events exact %d vs fast %d (%.1f%%)", re.SpendEvents, rf.SpendEvents, 100*rel)
	}
}

// TestFastSamplingSkipsRebuildTrain is the churn-invalidation regression
// test: with the Fenwick index active, degree-weighted routing patches
// weights in place, so a peer's neighborhood is rebuilt at most once per
// incarnation (first spend), while the exact sampler's dirty train rebuilds
// whole neighborhoods on every churn event. A reintroduced
// markNeighborhoodDirty call on the fast path would blow the per-incarnation
// bound immediately.
func TestFastSamplingSkipsRebuildTrain(t *testing.T) {
	sFast, resFast := runSim(t, fastChurnConfig(t, RouteDegreeWeighted, true, 613))
	bound := uint64(400) + resFast.Joins // one lazy build per incarnation
	if sFast.rebuilds > bound {
		t.Errorf("fast mode rebuilt %d neighborhoods, want <= %d (one per incarnation)",
			sFast.rebuilds, bound)
	}
	sExact, resExact := runSim(t, fastChurnConfig(t, RouteDegreeWeighted, false, 613))
	if resExact.Joins == 0 || resExact.Departures == 0 {
		t.Fatal("churn did not run")
	}
	if sExact.rebuilds <= sFast.rebuilds {
		t.Errorf("exact dirty train rebuilt %d <= fast %d; regression harness lost its contrast",
			sExact.rebuilds, sFast.rebuilds)
	}
}

// TestFastSamplingInertUnderAvailability pins that FastSampling changes
// nothing for availability routing, closed or churning: the exact scan is
// its only sampler.
func TestFastSamplingInertUnderAvailability(t *testing.T) {
	for _, churn := range []bool{false, true} {
		exact := fastChurnConfig(t, RouteAvailability, false, 615)
		fast := fastChurnConfig(t, RouteAvailability, true, 615)
		if !churn {
			exact.Churn, fast.Churn = nil, nil
		}
		re, err := Run(exact)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := Run(fast)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, re, rf)
	}
}
