package shard_test

import (
	"testing"

	"creditp2p/internal/fault"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// fuzzRun is one FuzzShardRun input: a small sharded run under a fault
// plan.
type fuzzRun struct {
	seed int64
	// n peers joined by up to edges random links: isolated peers and
	// empty graphs occur.
	n, edges uint8
	// lanes picks the third lane count run, 1 + lanes%9.
	lanes uint8
	// windows is the barrier count, 0 for shard.DefaultWindows.
	windows uint8
	// policies is a bitmask over fuzzPolicies.
	policies uint8
	// routing is the shard.Routing mode; values past RouteAvailability
	// must be refused.
	routing   uint8
	streaming bool
	horizon   float64
	// lifespan and downtime are the churn means.
	lifespan, downtime float64
	wealth             uint8
	// fail and drop are the fault plan's probabilities in 512ths.
	fail, drop uint8
}

// fuzzPolicies builds the pipeline stages bit k of fuzzRun.policies
// selects.
var fuzzPolicies = []func() (policy.Policy, error){
	func() (policy.Policy, error) { return policy.NewIncomeTax(0.2, 5) },
	func() (policy.Policy, error) { return policy.NewRedistribute(), nil },
	func() (policy.Policy, error) { return policy.NewDemurrage(0.05, 10) },
	func() (policy.Policy, error) { return policy.NewInjection(1) },
	func() (policy.Policy, error) {
		return policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{TargetGini: 0.3, Gain: 0.5, InitialRate: 0.1})
	},
	func() (policy.Policy, error) { return policy.NewNewcomerSubsidy(5, false) },
}

// maxFuzzEvents bounds the expected events of one fuzzed run, so every
// input finishes in milliseconds.
const maxFuzzEvents = 20000

// config builds the run's configuration at p lanes, or reports that the
// input is too costly to run.
func (in fuzzRun) config(t *testing.T, p int) (shard.Config, bool) {
	n := int(in.n % 65)
	// One attempt or round per peer per unit time, plus a depart and a
	// rejoin per lifecycle.
	rate := 1.0
	if in.lifespan > 0 && in.downtime > 0 {
		rate += 2 / (in.lifespan + in.downtime)
	}
	if float64(n)*in.horizon*rate > maxFuzzEvents {
		return shard.Config{}, false
	}
	g := topology.NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	r := xrand.New(in.seed)
	for k := 0; n > 1 && k < int(in.edges); k++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b && !g.HasEdge(a, b) {
			if err := g.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	var w shard.Workload
	var err error
	if in.streaming {
		w, err = streaming.NewShard(streaming.ShardConfig{StreamRate: 2, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.1})
	} else {
		w, err = market.NewShard(market.ShardConfig{Mu: 1, Amount: 1, FreeRiderFrac: 0.1})
	}
	if err != nil {
		t.Fatal(err)
	}
	w, err = fault.Plan{Seed: in.seed ^ 0x5eed, FailProb: float64(in.fail) / 512, DropProb: float64(in.drop) / 512}.Wrap(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph:         g,
		Shards:        p,
		Horizon:       in.horizon,
		Seed:          in.seed,
		InitialWealth: int64(in.wealth),
		Churn:         shard.ChurnConfig{MeanLifespan: in.lifespan, MeanDowntime: in.downtime},
		Routing:       shard.RoutingConfig{Mode: shard.Routing(in.routing % 4)},
		Workload:      w,
	}
	if in.windows > 0 {
		cfg.Window = in.horizon / float64(in.windows)
	}
	for k, mk := range fuzzPolicies {
		if in.policies&(1<<k) != 0 {
			pol, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policies = append(cfg.Policies, pol)
			cfg.PolicyEpoch = in.horizon / 8
		}
	}
	return cfg, true
}

// run takes the input to the horizon at p lanes through fault.Run, with an
// audit at every barrier, and returns its fingerprint; ok is false when the
// engine refused the config.
func (in fuzzRun) run(t *testing.T, p int) (fp uint64, ok bool) {
	cfg, _ := in.config(t, p)
	s, err := shard.NewSim(cfg)
	if err != nil {
		return 0, false
	}
	if err := s.Start(); err != nil {
		t.Fatalf("P=%d: start: %v", p, err)
	}
	if err := fault.Run(s, 1).Err(); err != nil {
		t.Fatalf("P=%d: %v", p, err)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatalf("P=%d: finish: %v", p, err)
	}
	return res.Fingerprint(), true
}

// fuzzRunSeeds are the edge configurations: more lanes than peers, peers
// without neighbours, no peers at all, a horizon of 1e-300, lifespans of
// 1e-6, zero wealth, and a streaming run with every mechanism on.
var fuzzRunSeeds = []fuzzRun{
	{seed: 1, n: 40, edges: 120, lanes: 2, horizon: 20, wealth: 10},
	{seed: 2, n: 3, edges: 3, lanes: 8, windows: 16, horizon: 20, wealth: 10, fail: 60, drop: 10},
	{seed: 3, n: 30, lanes: 2, edges: 5, horizon: 20, wealth: 10, lifespan: 5, downtime: 2},
	{seed: 4, n: 0, lanes: 4, horizon: 20, wealth: 10, policies: 0x3f},
	{seed: 5, n: 64, edges: 200, lanes: 7, horizon: 1e-300, wealth: 10, policies: 0x1f, lifespan: 1, downtime: 1},
	{seed: 6, n: 20, lanes: 5, edges: 60, horizon: 10, wealth: 10, lifespan: 1e-6, downtime: 1, routing: 2},
	{seed: 7, n: 50, lanes: 3, edges: 150, horizon: 20, wealth: 0, policies: 0x0f, fail: 30, drop: 5},
	{seed: 8, n: 64, edges: 255, lanes: 6, windows: 40, policies: 0x3f, routing: 2, streaming: true,
		horizon: 15, lifespan: 6, downtime: 2, wealth: 5, fail: 50, drop: 20},
	{seed: 9, n: 48, lanes: 8, edges: 100, policies: 0x14, routing: 1, horizon: 30, lifespan: 10, downtime: 3, wealth: 8, fail: 40},
	{seed: 10, n: 10, lanes: 1, edges: 20, routing: 3, horizon: 10, wealth: 10},
}

// FuzzShardRun compiles small random configurations — peers, lanes, window,
// policies, churn, routing, workload and fault plan — and takes each to
// the horizon through fault.Run with an audit at every barrier. A config
// must be refused at every lane count or run cleanly at every lane count,
// and P=1, P=2 and the input's P (up to 9, so P > N occurs) must produce
// one fingerprint.
func FuzzShardRun(f *testing.F) {
	for _, in := range fuzzRunSeeds {
		f.Add(in.seed, in.n, in.edges, in.lanes, in.windows, in.policies, in.routing, in.streaming,
			in.horizon, in.lifespan, in.downtime, in.wealth, in.fail, in.drop)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, edges, lanes, windows, policies, routing uint8, streaming bool,
		horizon, lifespan, downtime float64, wealth, fail, drop uint8) {
		in := fuzzRun{seed: seed, n: n, edges: edges, lanes: lanes, windows: windows, policies: policies, routing: routing,
			streaming: streaming, horizon: horizon, lifespan: lifespan, downtime: downtime, wealth: wealth,
			fail: fail, drop: drop}
		if _, ok := in.config(t, 1); !ok {
			t.Skip("more events than maxFuzzEvents")
		}
		want, ok := in.run(t, 1)
		for _, p := range []int{2, 1 + int(in.lanes%9)} {
			got, gotOK := in.run(t, p)
			if gotOK != ok || got != want {
				t.Fatalf("P=%d: fingerprint %016x (accepted %v), P=1: %016x (accepted %v)", p, got, gotOK, want, ok)
			}
		}
	})
}
