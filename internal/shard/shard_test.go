package shard_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

func testGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, MeanDegree: 6, Alpha: 2.5}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// marketConfig is the matrix test's market scenario: churn plus free
// riders, so lifecycle, lost-in-flight and role assignment are all
// exercised.
func marketConfig(t testing.TB, p int, policies []policy.Policy) shard.Config {
	t.Helper()
	w, err := market.NewShard(market.ShardConfig{Mu: 2.0, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph:         testGraph(t, 600, 42),
		Shards:        p,
		Horizon:       20,
		Seed:          7,
		InitialWealth: 30,
		Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
		Policies:      policies,
		Workload:      w,
	}
	if policies != nil {
		cfg.PolicyEpoch = 2.0
	}
	return cfg
}

func streamingConfig(t testing.TB, p int, policies []policy.Policy) shard.Config {
	t.Helper()
	w, err := streaming.NewShard(streaming.ShardConfig{
		StreamRate: 3, ChunkPrice: 1, RoundPeriod: 1.0, SeedFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph:         testGraph(t, 500, 43),
		Shards:        p,
		Horizon:       15,
		Seed:          11,
		InitialWealth: 25,
		Churn:         shard.ChurnConfig{MeanLifespan: 12, MeanDowntime: 4},
		Policies:      policies,
		Workload:      w,
	}
	if policies != nil {
		cfg.PolicyEpoch = 1.5
	}
	return cfg
}

func taxPipeline(t *testing.T) []policy.Policy {
	t.Helper()
	tax, err := policy.NewIncomeTax(0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := policy.NewInjection(1)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{tax, policy.NewRedistribute(), inj}
}

// requireSameResult compares two results field by field (excluding the
// shard count, which is the one legitimately varying field).
func requireSameResult(t *testing.T, label string, base, got *shard.Result) {
	t.Helper()
	if base.Fingerprint() != got.Fingerprint() {
		a, b := *base, *got
		a.Shards, b.Shards = 0, 0
		if !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Errorf("%s: counters diverge: %v vs %v", label, a.Counters, b.Counters)
		}
		t.Fatalf("%s: fingerprint %016x != baseline %016x\nbase: %+v\n got: %+v",
			label, got.Fingerprint(), base.Fingerprint(), a, b)
	}
}

// TestShardCountInvarianceMarket pins the engine's central contract:
// the same seed produces byte-identical results at every shard count,
// on the market workload with churn and free riders, both without and
// with an economic policy pipeline. With policies, P=3 runs the loser
// tree with a padded leaf.
func TestShardCountInvarianceMarket(t *testing.T) {
	for _, withPolicies := range []bool{false, true} {
		var pol []policy.Policy
		name := "plain"
		if withPolicies {
			pol = taxPipeline(t)
			name = "policies"
		}
		base, err := shard.Run(marketConfig(t, 1, pol))
		if err != nil {
			t.Fatal(err)
		}
		if base.Events == 0 || base.Transfers == 0 {
			t.Fatalf("%s: degenerate baseline: %+v", name, base)
		}
		if base.Departures == 0 || base.Joins == 0 {
			t.Fatalf("%s: churn not exercised: %+v", name, base)
		}
		if withPolicies && base.TaxCollected == 0 {
			t.Fatalf("policies not exercised: %+v", base)
		}
		for _, p := range []int{2, 3, 4, 8} {
			var freshPol []policy.Policy
			if withPolicies {
				freshPol = taxPipeline(t)
			}
			got, err := shard.Run(marketConfig(t, p, freshPol))
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			requireSameResult(t, name+" market P="+itoa(p), base, got)
		}
	}
}

// TestShardCountInvarianceStreaming is the same matrix on the streaming
// workload (multi-purchase rounds exercising intra-instant sequence
// numbers), with the policy merge path.
func TestShardCountInvarianceStreaming(t *testing.T) {
	base, err := shard.Run(streamingConfig(t, 1, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if base.Counters["chunks_traded"] == 0 || base.Counters["chunks_seeded"] == 0 {
		t.Fatalf("degenerate baseline: %+v", base.Counters)
	}
	for _, p := range []int{2, 3, 4, 8} {
		got, err := shard.Run(streamingConfig(t, p, taxPipeline(t)))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		requireSameResult(t, "streaming P="+itoa(p), base, got)
	}
}

// TestShardRunTwiceDeterminism pins run-to-run determinism at a fixed
// multi-lane shard count: the goroutine schedule must not leak into
// results.
func TestShardRunTwiceDeterminism(t *testing.T) {
	a, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "market P=4 rerun", a, b)
}

// TestShardCounterConsistency checks the workload accounting identity:
// every attempt is exactly one of the outcome classes.
func TestShardCounterConsistency(t *testing.T) {
	res, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	sum := c["purchases"] + c["fail_insolvent"] + c["fail_offline"] +
		c["fail_freerider"] + c["fail_isolated"]
	if sum != c["attempts"] {
		t.Fatalf("attempt outcomes sum to %d, want %d (%v)", sum, c["attempts"], c)
	}
	if res.Transfers != c["purchases"] {
		t.Fatalf("transfers %d != purchases %d", res.Transfers, c["purchases"])
	}
	if res.FinalSupply != res.Minted-res.Burned {
		t.Fatalf("supply %d != minted %d - burned %d", res.FinalSupply, res.Minted, res.Burned)
	}
}

// TestShardResumeParity runs to the horizon straight, and again with a
// mid-run snapshot/restore at P=4, and requires identical results — the
// checkpoint captures the complete state at a window boundary.
func TestShardResumeParity(t *testing.T) {
	pol := taxPipeline(t)
	straight, err := shard.Run(marketConfig(t, 4, pol))
	if err != nil {
		t.Fatal(err)
	}

	sim, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // partway into the 128-window run
		if !sim.StepWindow() {
			t.Fatal("horizon reached before snapshot point")
		}
	}
	snap := sim.Snapshot()

	resumed, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), [][]byte{snap})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Now() != sim.Now() {
		t.Fatalf("restored at t=%v, snapshot taken at t=%v", resumed.Now(), sim.Now())
	}
	for resumed.StepWindow() {
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "resumed P=4", straight, got)
}

// TestShardRestoreRefusesMismatchedShards pins the descriptive error on
// restoring a P=4 snapshot into a P=2 engine.
func TestShardRestoreRefusesMismatchedShards(t *testing.T) {
	sim, err := shard.NewSim(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sim.StepWindow()
	}
	snap := sim.Snapshot()

	_, err = shard.RestoreChain(marketConfig(t, 2, nil), [][]byte{snap})
	if err == nil {
		t.Fatal("mismatched shard count accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "4 shards") || !strings.Contains(msg, "Shards=4") {
		t.Fatalf("error does not name the shard counts: %v", err)
	}

	// A config drift beyond the shard count trips the digest check.
	drifted := marketConfig(t, 4, nil)
	drifted.Seed = 8
	if _, err := shard.RestoreChain(drifted, [][]byte{snap}); err == nil ||
		!strings.Contains(err.Error(), "digest") {
		t.Fatalf("config drift not refused with a digest error: %v", err)
	}
}

// TestShardRejectsBadConfig covers the validation surface.
func TestShardRejectsBadConfig(t *testing.T) {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 10, 1)
	bad := []shard.Config{
		{Graph: g, Shards: 0, Horizon: 1, Workload: w},
		{Graph: nil, Shards: 1, Horizon: 1, Workload: w},
		{Graph: g, Shards: 1, Horizon: 0, Workload: w},
		{Graph: g, Shards: 1, Horizon: 1, Workload: nil},
		{Graph: g, Shards: 1, Horizon: 1, Workload: w, Window: 2},
		{Graph: g, Shards: 1, Horizon: 1, Workload: w, Churn: shard.ChurnConfig{MeanLifespan: 1}},
		{Graph: g, Shards: 1, Horizon: 10, Workload: w, PolicyEpoch: 1e-12},
		{Graph: g, Shards: 1, Horizon: 10, Workload: w, Window: 0.5, PolicyEpoch: 0.25},
		{Graph: g, Shards: 1, Horizon: 1, Workload: tooManyCounters{w}},
		{Graph: g, Shards: 1, Horizon: 1, Workload: w, InitialWealth: 1 << 40},
	}
	for i, cfg := range bad {
		if _, err := shard.New(cfg); !errors.Is(err, shard.ErrBadConfig) {
			t.Errorf("config %d: err %v, want ErrBadConfig: %+v", i, err, cfg)
		}
	}
}

// TestShardRefusesNonFiniteConfig pins that New and the workload
// constructors refuse NaN and infinite horizons, windows, cadences and
// rates with ErrBadConfig, instead of panicking on a presize, stepping
// NaN-timed windows forever or scheduling at infinite rates.
func TestShardRefusesNonFiniteConfig(t *testing.T) {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 10, 1)
	nan, inf := math.NaN(), math.Inf(1)
	for name, cfg := range map[string]shard.Config{
		"horizon-nan":    {Horizon: nan},
		"horizon-inf":    {Horizon: inf},
		"window-nan":     {Horizon: 10, Window: nan},
		"window-inf":     {Horizon: 10, Window: inf},
		"window-neg-inf": {Horizon: 10, Window: -inf},
		"window-tiny":    {Horizon: 500, Window: 1e-300},
		"sample-nan":     {Horizon: 10, SampleEvery: nan},
		"sample-inf":     {Horizon: 10, SampleEvery: inf},
		"sample-neg-inf": {Horizon: 10, SampleEvery: -inf},
		"epoch-nan":      {Horizon: 10, PolicyEpoch: nan},
		"epoch-inf":      {Horizon: 10, PolicyEpoch: inf},
		"lifespan-nan":   {Horizon: 10, Churn: shard.ChurnConfig{MeanLifespan: nan, MeanDowntime: 1}},
		"lifespan-inf":   {Horizon: 10, Churn: shard.ChurnConfig{MeanLifespan: inf, MeanDowntime: 1}},
		"downtime-nan":   {Horizon: 10, Churn: shard.ChurnConfig{MeanLifespan: 1, MeanDowntime: nan}},
	} {
		cfg.Graph, cfg.Shards, cfg.Workload = g, 2, w
		if _, err := shard.New(cfg); !errors.Is(err, shard.ErrBadConfig) {
			t.Errorf("%s: err %v, want ErrBadConfig", name, err)
		}
	}
	for _, mu := range []float64{nan, inf} {
		if _, err := market.NewShard(market.ShardConfig{Mu: mu, Amount: 1}); !errors.Is(err, market.ErrBadConfig) {
			t.Errorf("market Mu=%v: err %v, want ErrBadConfig", mu, err)
		}
	}
	for _, period := range []float64{nan, inf} {
		if _, err := streaming.NewShard(streaming.ShardConfig{StreamRate: 1, ChunkPrice: 1, RoundPeriod: period}); !errors.Is(err, streaming.ErrBadConfig) {
			t.Errorf("streaming RoundPeriod=%v: err %v, want ErrBadConfig", period, err)
		}
	}
}

// TestShardTinySampleCadence runs a cadence far below the window: New
// must not size the metric series from Horizon/SampleEvery, and the run
// records one sample per barrier plus the t=0 sample.
func TestShardTinySampleCadence(t *testing.T) {
	cfg := marketConfig(t, 2, nil)
	cfg.SampleEvery = 1e-300
	sim, err := shard.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	windows := 0
	for sim.StepWindow() {
		windows++
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Gini.Len(); got != windows+1 {
		t.Fatalf("recorded %d samples over %d windows, want %d", got, windows, windows+1)
	}
}

// tooManyCounters declares one counter more than a lane holds.
type tooManyCounters struct{ *market.ShardMarket }

func (tooManyCounters) CounterNames() []string { return make([]string, shard.MaxCounters+1) }

func itoa(v int) string {
	return string(rune('0' + v))
}

// TestEnginesShareOneGraph builds two engines from one graph at once and
// runs them side by side. Both read the graph's adjacency arena in
// place: a generated graph's from the start, and an edge-built graph's
// from the compaction its first partition makes, which the other engine
// waits for. Under -race this checks that neither construction nor either
// run writes what the other reads; each result must equal a run on a
// graph of its own.
func TestEnginesShareOneGraph(t *testing.T) {
	builds := []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"generated", func() *topology.Graph { return testGraph(t, 600, 42) }},
		{"edge-built", func() *topology.Graph {
			g, err := topology.Ring(600, 3, xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, b := range builds {
		cfg := marketConfig(t, 1, nil)
		cfg.Graph = b.graph()
		want, err := shard.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared := b.graph()
		var cfgs [2]shard.Config
		for k := range cfgs {
			cfgs[k] = marketConfig(t, 2+k, nil)
			cfgs[k].Graph = shared
		}
		var got [2]*shard.Result
		var errs [2]error
		var wg sync.WaitGroup
		for k := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k], errs[k] = shard.Run(cfgs[k])
			}()
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatalf("%s: engine %d: %v", b.name, k, errs[k])
			}
			requireSameResult(t, b.name+" shared graph P="+itoa(2+k), want, got[k])
		}
	}
}
