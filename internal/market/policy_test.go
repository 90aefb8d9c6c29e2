package market

import (
	"errors"
	"math"
	"testing"

	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// policyGraph builds the condensation-prone substrate the policy tests
// share: a scale-free overlay with degree-weighted routing concentrates
// income on hubs.
func policyBase(t *testing.T, seed int64) Config {
	t.Helper()
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 300, Alpha: 2.5, MeanDegree: 12}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Routing:       RouteDegreeWeighted,
		Horizon:       800,
		Seed:          seed + 1,
	}
}

// TestPolicyConfigValidation covers the new Config fields' error paths.
func TestPolicyConfigValidation(t *testing.T) {
	base := func(t *testing.T) Config { return policyBase(t, 900) }

	cfg := base(t)
	cfg.PolicyEpoch = -5
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative policy epoch accepted: %v", err)
	}

	cfg = base(t)
	cfg.Policies = []policy.Policy{nil}
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil policy accepted: %v", err)
	}

	cfg = base(t)
	cfg.PolicyEpoch = math.NaN()
	if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NaN policy epoch accepted: %v", err)
	}
}

// TestAdaptiveTaxSteersGini pins the feedback controller end to end: a
// degree-routed scale-free market condenses; the adaptive tax observes the
// Gini each epoch, raises its rate from zero, collects, and the
// redistributor recycles the pot — ending measurably less condensed than
// the unmanaged market.
func TestAdaptiveTaxSteersGini(t *testing.T) {
	free, err := Run(policyBase(t, 910))
	if err != nil {
		t.Fatal(err)
	}

	at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
		TargetGini: 0.2,
		Gain:       0.5,
		MaxRate:    0.8,
		Threshold:  20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyBase(t, 910)
	cfg.Policies = []policy.Policy{at, policy.NewRedistribute()}
	cfg.PolicyEpoch = cfg.Horizon / 50
	managed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if at.Rate() <= 0 {
		t.Errorf("controller never raised the rate: %v", at.Rate())
	}
	if managed.TaxCollected == 0 || managed.TaxRedistributed == 0 {
		t.Errorf("no policy activity: collected %d redistributed %d",
			managed.TaxCollected, managed.TaxRedistributed)
	}
	if managed.TaxRedistributed > managed.TaxCollected {
		t.Errorf("redistributed %d exceeds collected %d",
			managed.TaxRedistributed, managed.TaxCollected)
	}
	if managed.FinalGini >= free.FinalGini {
		t.Errorf("adaptive tax did not reduce condensation: %v (managed) vs %v (free)",
			managed.FinalGini, free.FinalGini)
	}
}

// TestDemurrageRecirculatesHoards pins the decay sweep end to end:
// demurrage plus redistribution moves hoarded credits back into
// circulation and compresses the wealth distribution.
func TestDemurrageRecirculatesHoards(t *testing.T) {
	free, err := Run(policyBase(t, 920))
	if err != nil {
		t.Fatal(err)
	}

	dem, err := policy.NewDemurrage(0.1, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyBase(t, 920)
	cfg.Policies = []policy.Policy{dem, policy.NewRedistribute()}
	cfg.PolicyEpoch = cfg.Horizon / 40
	managed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if managed.TaxCollected == 0 {
		t.Fatal("demurrage decayed nothing")
	}
	if managed.TaxRedistributed > managed.TaxCollected {
		t.Errorf("redistributed %d exceeds collected %d",
			managed.TaxRedistributed, managed.TaxCollected)
	}
	if managed.FinalGini >= free.FinalGini {
		t.Errorf("demurrage did not reduce condensation: %v (managed) vs %v (free)",
			managed.FinalGini, free.FinalGini)
	}
	// The supply never changes: demurrage only recirculates.
	if managed.Injected != 0 {
		t.Errorf("demurrage minted %d credits", managed.Injected)
	}
}

// TestNewcomerSubsidyGrantsJoiners pins the join hook end to end under
// churn, in both funding modes.
func TestNewcomerSubsidyGrantsJoiners(t *testing.T) {
	churn := &ChurnConfig{ArrivalRate: 0.4, MeanLifespan: 120, AttachDegree: 3}

	// Minted: every churn arrival is granted, so Injected = Grant * Joins.
	sub, err := policy.NewNewcomerSubsidy(5, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyBase(t, 930)
	cfg.Churn = churn
	cfg.Policies = []policy.Policy{sub}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 {
		t.Fatal("no churn arrivals; test vacuous")
	}
	if want := int64(res.Joins) * 5; res.Injected != want {
		t.Errorf("minted subsidy Injected = %d, want %d (%d joins)", res.Injected, want, res.Joins)
	}

	// Pot-funded: an income tax feeds the pot, the subsidy transfers from
	// incumbents to arrivals, nothing is minted.
	tax, err := policy.NewIncomeTax(0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	fsub, err := policy.NewNewcomerSubsidy(5, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg = policyBase(t, 930)
	cfg.Churn = churn
	cfg.Policies = []policy.Policy{tax, fsub, policy.NewRedistribute()}
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 0 {
		t.Errorf("pot-funded subsidy minted %d credits", res.Injected)
	}
	if fsub.Granted() == 0 {
		t.Error("pot-funded subsidy granted nothing")
	}
	if res.TaxRedistributed < fsub.Granted() {
		t.Errorf("Result.TaxRedistributed %d misses subsidy grants %d",
			res.TaxRedistributed, fsub.Granted())
	}
}

// TestPolicyPipelineDeterminism runs the full composed pipeline twice with
// one seed and demands identical results — the determinism contract of the
// engine (kernel-RNG draws, index-order sweeps, pipeline order).
func TestPolicyPipelineDeterminism(t *testing.T) {
	run := func() *Result {
		at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
			TargetGini: 0.25, Gain: 0.4, MaxRate: 0.7, Threshold: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		dem, err := policy.NewDemurrage(0.05, 40)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := policy.NewNewcomerSubsidy(8, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := policyBase(t, 940)
		cfg.Routing = RouteAvailability
		cfg.Churn = &ChurnConfig{ArrivalRate: 0.3, MeanLifespan: 150, AttachDegree: 3}
		cfg.Policies = []policy.Policy{at, dem, sub, policy.NewRedistribute()}
		cfg.PolicyEpoch = 20
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.SpendEvents != b.SpendEvents || a.Joins != b.Joins || a.Departures != b.Departures {
		t.Fatalf("event counts differ: %d/%d/%d vs %d/%d/%d",
			a.SpendEvents, a.Joins, a.Departures, b.SpendEvents, b.Joins, b.Departures)
	}
	if a.TaxCollected != b.TaxCollected || a.TaxRedistributed != b.TaxRedistributed || a.Injected != b.Injected {
		t.Fatalf("policy totals differ: %d/%d/%d vs %d/%d/%d",
			a.TaxCollected, a.TaxRedistributed, a.Injected,
			b.TaxCollected, b.TaxRedistributed, b.Injected)
	}
	if a.FinalGini != b.FinalGini {
		t.Fatalf("final Gini differs: %v vs %v", a.FinalGini, b.FinalGini)
	}
	if len(a.FinalWealth) != len(b.FinalWealth) {
		t.Fatalf("population differs: %d vs %d", len(a.FinalWealth), len(b.FinalWealth))
	}
	for id, w := range a.FinalWealth {
		if b.FinalWealth[id] != w {
			t.Fatalf("wealth differs at peer %d: %d vs %d", id, w, b.FinalWealth[id])
		}
	}
	if a.TaxCollected == 0 {
		t.Fatal("pipeline collected nothing; test vacuous")
	}
}
