package market

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"creditp2p/internal/credit"
	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// identicalResults asserts byte-identical outputs of two same-seed runs:
// every series sample, snapshot, counter and per-peer map entry.
func identicalResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.SpendEvents != b.SpendEvents {
		t.Errorf("spend events differ: %d vs %d", a.SpendEvents, b.SpendEvents)
	}
	if a.Joins != b.Joins || a.Departures != b.Departures {
		t.Errorf("churn differs: %d/%d vs %d/%d", a.Joins, a.Departures, b.Joins, b.Departures)
	}
	if a.TaxCollected != b.TaxCollected || a.TaxRedistributed != b.TaxRedistributed {
		t.Errorf("taxation differs: %d/%d vs %d/%d",
			a.TaxCollected, a.TaxRedistributed, b.TaxCollected, b.TaxRedistributed)
	}
	if a.Injected != b.Injected {
		t.Errorf("injected differs: %d vs %d", a.Injected, b.Injected)
	}
	if a.FinalGini != b.FinalGini {
		t.Errorf("final Gini differs: %v vs %v", a.FinalGini, b.FinalGini)
	}
	if a.Gini.Len() != b.Gini.Len() {
		t.Fatalf("gini series lengths differ: %d vs %d", a.Gini.Len(), b.Gini.Len())
	}
	for i := range a.Gini.Values {
		if a.Gini.Times[i] != b.Gini.Times[i] || a.Gini.Values[i] != b.Gini.Values[i] {
			t.Fatalf("gini sample %d differs: (%v,%v) vs (%v,%v)",
				i, a.Gini.Times[i], a.Gini.Values[i], b.Gini.Times[i], b.Gini.Values[i])
		}
	}
	for i := range a.Supply.Values {
		if a.Supply.Values[i] != b.Supply.Values[i] {
			t.Fatalf("supply sample %d differs: %v vs %v", i, a.Supply.Values[i], b.Supply.Values[i])
		}
	}
	for i := range a.Population.Values {
		if a.Population.Values[i] != b.Population.Values[i] {
			t.Fatalf("population sample %d differs", i)
		}
	}
	if len(a.Snapshots) != len(b.Snapshots) {
		t.Fatalf("snapshot counts differ: %d vs %d", len(a.Snapshots), len(b.Snapshots))
	}
	for i := range a.Snapshots {
		sa, sb := a.Snapshots[i], b.Snapshots[i]
		if sa.Time != sb.Time || len(sa.Sorted) != len(sb.Sorted) {
			t.Fatalf("snapshot %d shape differs", i)
		}
		for j := range sa.Sorted {
			if sa.Sorted[j] != sb.Sorted[j] {
				t.Fatalf("snapshot %d entry %d differs: %v vs %v", i, j, sa.Sorted[j], sb.Sorted[j])
			}
		}
	}
	if len(a.FinalWealth) != len(b.FinalWealth) {
		t.Fatalf("final wealth sizes differ: %d vs %d", len(a.FinalWealth), len(b.FinalWealth))
	}
	for id, wa := range a.FinalWealth {
		if wb, ok := b.FinalWealth[id]; !ok || wb != wa {
			t.Fatalf("wealth differs at peer %d: %d vs %d", id, wa, wb)
		}
	}
	for id, ra := range a.SpendingRate {
		if rb, ok := b.SpendingRate[id]; !ok || rb != ra {
			t.Fatalf("spending rate differs at peer %d: %v vs %v", id, ra, rb)
		}
	}
}

// TestGoldenDeterminism runs every mechanism combination twice with the
// same seed and demands identical Results. Taxation's redistribution and
// periodic injection used to iterate Go maps, so same-seed runs drew RNG in
// random order — the dense-state engine walks index-ordered slices instead.
func TestGoldenDeterminism(t *testing.T) {
	build := func(name string) Config {
		g, err := topology.RandomRegular(60, 6, xrand.New(411))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Graph:         g,
			InitialWealth: 25,
			DefaultMu:     1,
			Horizon:       600,
			SampleEvery:   20,
			SnapshotTimes: []float64{150, 450},
			Seed:          412,
		}
		switch name {
		case "baseline":
		case "taxation":
			cfg.Policies = taxStages(t, 0.3, 10)
		case "injection":
			cfg.Policies = []policy.Policy{injection(t, 2)}
			cfg.PolicyEpoch = 50
		case "churn":
			cfg.Churn = &ChurnConfig{
				ArrivalRate:  0.4,
				MeanLifespan: 150,
				AttachDegree: 4,
				Preferential: true,
			}
		case "taxation+injection+churn":
			cfg.Policies = taxStages(t, 0.2, 15, injection(t, 1))
			cfg.PolicyEpoch = 80
			cfg.Churn = &ChurnConfig{
				ArrivalRate:  0.3,
				MeanLifespan: 200,
				AttachDegree: 4,
				Preferential: false,
			}
		case "availability-routing":
			cfg.Routing = RouteAvailability
		case "dynamic-spending":
			cfg.Spending = credit.DynamicSpending{M: 25}
		}
		return cfg
	}
	for _, name := range []string{
		"baseline", "taxation", "injection", "churn",
		"taxation+injection+churn", "availability-routing", "dynamic-spending",
	} {
		t.Run(name, func(t *testing.T) {
			// Policy stages accumulate counters, and the graph is mutated
			// under churn, so each run gets a fresh config.
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

// giniDigest folds a Gini series and a final Gini into one FNV-1a word
// over their exact float bits.
func giniDigest(times, values []float64, final float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := range values {
		put(times[i])
		put(values[i])
	}
	put(final)
	return h.Sum64()
}

// TestEngineVariantsGoldenPaperScale pins the wealth-Gini output at paper
// scale (N=500 scale-free overlay, mean degree 20) with taxation,
// injection and churn all active (and one all-mechanisms run for their
// interaction). The incremental-gini subtests hold the balance-histogram
// sampler to the digests the sorting sampler produced on these runs; the
// stepped subtests drive each run event by event through Sim.Step, as the
// fault-injection harness does, and demand Run's Result.
func TestEngineVariantsGoldenPaperScale(t *testing.T) {
	build := func(mechanism string) Config {
		g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 500, Alpha: 2.5, MeanDegree: 20}, xrand.New(2024))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Graph:         g,
			InitialWealth: 30,
			DefaultMu:     1,
			Horizon:       300,
			SampleEvery:   10,
			SnapshotTimes: []float64{100, 250},
			Seed:          2025,
		}
		switch mechanism {
		case "taxation":
			cfg.Policies = taxStages(t, 0.25, 20)
		case "injection":
			cfg.Policies = []policy.Policy{injection(t, 2)}
			cfg.PolicyEpoch = 40
		case "churn":
			cfg.Churn = &ChurnConfig{
				ArrivalRate:  1,
				MeanLifespan: 150,
				AttachDegree: 6,
				Preferential: true,
			}
		case "all":
			cfg.Policies = taxStages(t, 0.2, 25, injection(t, 1))
			cfg.PolicyEpoch = 60
			cfg.Churn = &ChurnConfig{
				ArrivalRate:  0.5,
				MeanLifespan: 200,
				AttachDegree: 6,
				Preferential: false,
			}
		}
		return cfg
	}
	golden := map[string]struct {
		spends uint64
		gini   uint64
	}{
		"taxation":  {85630, 0x47a96aa06242bf5f},
		"injection": {84008, 0x0edc4c723b0eef4c},
		"churn":     {59250, 0xa32d47989131ff6d},
		"all":       {68716, 0xa798b9f1341c86dd},
	}
	for _, mechanism := range []string{"taxation", "injection", "churn", "all"} {
		t.Run(mechanism, func(t *testing.T) {
			base, err := Run(build(mechanism))
			if err != nil {
				t.Fatal(err)
			}
			t.Run("incremental-gini", func(t *testing.T) {
				want := golden[mechanism]
				got := giniDigest(base.Gini.Times, base.Gini.Values, base.FinalGini)
				if base.SpendEvents != want.spends || got != want.gini {
					t.Errorf("spends %d, Gini digest %016x; the sorting sampler gave %d, %016x", base.SpendEvents, got, want.spends, want.gini)
				}
			})
			t.Run("stepped", func(t *testing.T) {
				m, err := NewSim(build(mechanism))
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
				for m.Step() {
				}
				got, err := m.Finish()
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, base, got)
			})
		})
	}
}

// TestSpendRereadsBalanceAfterRedistribution is the regression test for the
// stale-balance bug: a spender whose payment triggers taxation and a
// redistribution round that credits the spender itself must re-read the
// ledger before deciding to idle — the locally decremented balance says 0
// while the ledger says 1, and the old code stranded the peer idle with a
// positive balance.
func TestSpendRereadsBalanceAfterRedistribution(t *testing.T) {
	g := topology.NewGraph()
	for _, id := range []int{0, 1} {
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph:         g,
		InitialWealth: 2,
		DefaultMu:     1,
		Policies:      taxStages(t, 1, 0), // every income credit is taxed
		Horizon:       100,
		Seed:          1,
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s, err := newSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two direct spends by peer 0. The first pays peer 1 (whose pre-income
	// wealth 2 > threshold, so the credit is taxed into the pot); the
	// second fills the pot to n=2, triggering a redistribution round that
	// hands peer 0 a credit in the middle of its own spend.
	gen := s.k.Peers.At(0).Gen
	s.spend(0, gen)
	s.spend(0, gen)
	if got := s.k.Balance(0); got != 1 {
		t.Fatalf("peer 0 balance = %d after redistribution, want 1", got)
	}
	if s.ws[0].flags&pfIdle != 0 {
		t.Fatal("peer 0 stranded idle with a positive balance (stale-balance bug)")
	}
	if !s.k.Sched.Cancel(s.ws[0].pending) {
		t.Fatal("peer 0 has no pending spend despite positive balance")
	}
	if err := s.k.Ledger.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
