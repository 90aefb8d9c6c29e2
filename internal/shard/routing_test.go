package shard_test

import (
	"fmt"
	"math"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/xrand"
)

// routedMarket is marketConfig with a routing mode applied.
func routedMarket(t testing.TB, p int, rc shard.RoutingConfig) shard.Config {
	t.Helper()
	cfg := marketConfig(t, p, nil)
	cfg.Routing = rc
	return cfg
}

// routedStreaming is streamingConfig with a routing mode applied.
func routedStreaming(t testing.TB, p int, rc shard.RoutingConfig) shard.Config {
	t.Helper()
	cfg := streamingConfig(t, p, nil)
	cfg.Routing = rc
	return cfg
}

// TestRoutingShardCountInvariance extends the engine's central contract
// to every weighted routing mode: degree and availability (the latter
// also with a policy pipeline, so the merge path runs under routing) each
// produce byte-identical results at every shard count, on both workloads.
func TestRoutingShardCountInvariance(t *testing.T) {
	cases := []struct {
		name string
		mk   func(p int) shard.Config
	}{
		{"market/degree", func(p int) shard.Config {
			return routedMarket(t, p, shard.RoutingConfig{Mode: shard.RouteDegree})
		}},
		{"market/availability", func(p int) shard.Config {
			cfg := marketConfig(t, p, taxPipeline(t))
			cfg.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability}
			return cfg
		}},
		{"streaming/degree", func(p int) shard.Config {
			return routedStreaming(t, p, shard.RoutingConfig{Mode: shard.RouteDegree})
		}},
		{"streaming/availability", func(p int) shard.Config {
			return routedStreaming(t, p, shard.RoutingConfig{Mode: shard.RouteAvailability})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, err := shard.Run(c.mk(1))
			if err != nil {
				t.Fatal(err)
			}
			if base.Events == 0 || base.Transfers == 0 {
				t.Fatalf("degenerate baseline: %+v", base)
			}
			for _, p := range []int{2, 4, 8} {
				got, err := shard.Run(c.mk(p))
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				requireSameResult(t, fmt.Sprintf("%s P=%d", c.name, p), base, got)
			}
		})
	}
}

// TestRoutingChangesOutcomes guards against dead wiring: each weighted
// mode must actually shift destinations relative to the uniform sampler.
func TestRoutingChangesOutcomes(t *testing.T) {
	uniform, err := shard.Run(marketConfig(t, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []shard.RoutingConfig{
		{Mode: shard.RouteDegree},
		{Mode: shard.RouteAvailability},
	} {
		got, err := shard.Run(routedMarket(t, 4, rc))
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() == uniform.Fingerprint() {
			t.Errorf("%v routing reproduced the uniform fingerprint; wiring is dead", rc.Mode)
		}
	}
}

// chiSquare computes the one-sample statistic of obs against weights.
func chiSquare(obs []int, weights []float64, draws int) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	var x2 float64
	for i, w := range weights {
		exp := float64(draws) * w / total
		d := float64(obs[i]) - exp
		x2 += d * d / exp
	}
	return x2
}

// chiCrit is the Wilson–Hilferty upper quantile at z=3.29 (p ~ 5e-4) for
// k degrees of freedom.
func chiCrit(k int) float64 {
	kf := float64(k)
	c := 1 - 2/(9*kf) + 3.29*math.Sqrt(2/(9*kf))
	return kf * c * c * c
}

// maxDegreePeer returns the engine's highest-degree peer.
func maxDegreePeer(e *shard.Engine) int32 {
	pt := e.Partition()
	best, bestDeg := int32(0), 0
	for g := int32(0); g < int32(e.N()); g++ {
		if d := pt.Degree(g); d > bestDeg {
			best, bestDeg = g, d
		}
	}
	return best
}

// rescanPick is the O(degree) reference sampler: one uniform draw scaled
// by the weight total, then a walk down the prefix sums.
func rescanPick(weights []float64, r *xrand.SplitMix64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TestRoutingSamplerMatchesDegreeWeights pins the degree-mode Fenwick
// sampler against the exact degree weights (RoutingWeight) and against
// the O(degree) rescan over them: one-sample chi-square each plus a
// two-sample cross-check, at 2e5 fixed-seed draws.
func TestRoutingSamplerMatchesDegreeWeights(t *testing.T) {
	const draws = 200_000
	cfg := routedMarket(t, 1, shard.RoutingConfig{Mode: shard.RouteDegree})
	cfg.Churn = shard.ChurnConfig{}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	g := maxDegreePeer(e)
	nbrs := e.Neighbors(g)
	if len(nbrs) < 10 {
		t.Fatalf("hub peer %d has only %d neighbors; graph too flat for the test", g, len(nbrs))
	}
	weights := make([]float64, len(nbrs))
	for i, nb := range nbrs {
		weights[i] = e.RoutingWeight(nb)
		if weights[i] != float64(e.Partition().Degree(nb)) {
			t.Fatalf("degree-mode weight of %d is %v, want its degree %d", nb, weights[i], e.Partition().Degree(nb))
		}
	}
	ln := e.Lanes()[0]
	r := xrand.NewSplitMix64(883, 0)
	obsF := make([]int, len(nbrs))
	for i := 0; i < draws; i++ {
		dst := ln.PickNeighbor(1.0, g, nbrs, &r)
		obsF[searchNeighbor(t, nbrs, dst)]++
	}
	rn := xrand.NewSplitMix64(884, 0)
	obsN := make([]int, len(nbrs))
	for i := 0; i < draws; i++ {
		obsN[rescanPick(weights, &rn)]++
	}

	crit := chiCrit(len(weights) - 1)
	if x2 := chiSquare(obsF, weights, draws); x2 > crit {
		t.Errorf("Fenwick degree sampler chi-square %.1f exceeds %.1f", x2, crit)
	}
	if x2 := chiSquare(obsN, weights, draws); x2 > crit {
		t.Errorf("degree rescan chi-square %.1f exceeds %.1f", x2, crit)
	}
	var x2 float64
	for i := range obsF {
		if s := obsF[i] + obsN[i]; s > 0 {
			d := float64(obsF[i] - obsN[i])
			x2 += d * d / float64(s)
		}
	}
	if x2 > crit {
		t.Errorf("two-sample Fenwick-vs-rescan chi-square %.1f exceeds %.1f", x2, crit)
	}
}

// TestRoutingSamplerMatchesAvailabilityMirror drives a churned run far
// enough for the availability EWMA to spread the weight mirror, then
// pins the Fenwick sampler's distribution against the exact frozen
// weights (RoutingWeight — the values the slab trees are built from).
func TestRoutingSamplerMatchesAvailabilityMirror(t *testing.T) {
	cfg := routedMarket(t, 1, shard.RoutingConfig{Mode: shard.RouteAvailability})
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if !e.StepWindow() {
			t.Fatalf("horizon exhausted at window %d", i)
		}
	}
	g := maxDegreePeer(e)
	nbrs := e.Neighbors(g)
	weights := make([]float64, len(nbrs))
	distinct := map[float64]bool{}
	for i, nb := range nbrs {
		weights[i] = e.RoutingWeight(nb)
		distinct[weights[i]] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("churn left only %d distinct weights among %d neighbors; EWMA not exercised", len(distinct), len(nbrs))
	}
	const draws = 200_000
	ln := e.Lanes()[0]
	r := xrand.NewSplitMix64(885, 0)
	obs := make([]int, len(nbrs))
	for i := 0; i < draws; i++ {
		dst := ln.PickNeighbor(e.Horizon(), g, nbrs, &r)
		obs[searchNeighbor(t, nbrs, dst)]++
	}
	crit := chiCrit(len(nbrs) - 1)
	if x2 := chiSquare(obs, weights, draws); x2 > crit {
		t.Errorf("availability sampler chi-square %.1f exceeds %.1f", x2, crit)
	}
}

func searchNeighbor(t *testing.T, nbrs []int32, dst int32) int {
	t.Helper()
	for i, nb := range nbrs {
		if nb == dst {
			return i
		}
	}
	t.Fatalf("sampler returned %d, not a neighbor", dst)
	return -1
}

// TestHeavyDegreeBoundarySweep sweeps the heavy-hitter threshold across
// its boundaries — every peer heavy, the default, the strict-inequality
// edge at the graph's maximum degree, and none heavy — and requires
// shard-count invariance to hold at each point. Thresholds are
// results-affecting by design (heavy trees fold patches, light trees
// rebuild; the float histories differ in rounding), so fingerprints are
// only compared within a threshold, never across.
func TestHeavyDegreeBoundarySweep(t *testing.T) {
	probe, err := shard.New(routedMarket(t, 1, shard.RoutingConfig{Mode: shard.RouteAvailability}))
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := probe.Partition().Degree(maxDegreePeer(probe))
	for _, heavy := range []int{1, 0 /* default 64 */, maxDeg - 1, maxDeg, 1 << 20} {
		rc := shard.RoutingConfig{Mode: shard.RouteAvailability, HeavyDegree: heavy}
		base, err := shard.Run(routedMarket(t, 1, rc))
		if err != nil {
			t.Fatalf("HeavyDegree=%d: %v", heavy, err)
		}
		if base.Transfers == 0 {
			t.Fatalf("HeavyDegree=%d: degenerate run: %+v", heavy, base)
		}
		for _, p := range []int{2, 4} {
			got, err := shard.Run(routedMarket(t, p, rc))
			if err != nil {
				t.Fatalf("HeavyDegree=%d P=%d: %v", heavy, p, err)
			}
			requireSameResult(t, fmt.Sprintf("HeavyDegree=%d P=%d", heavy, p), base, got)
		}
	}
}

// TestRoutingResumeParity pins the snapshot round trip of the routing
// state: a mid-run full snapshot of an availability-routed churned run
// (weight mirror, EWMA scores, Fenwick slab, totals) restores into a run
// that finishes byte-identical to the uninterrupted one. HeavyDegree=1
// makes nearly every tree barrier-patched, so the serialized slab floats
// — not a rebuild — must carry the canonical fold history.
func TestRoutingResumeParity(t *testing.T) {
	rc := shard.RoutingConfig{Mode: shard.RouteAvailability, HeavyDegree: 1}
	mk := func() shard.Config {
		cfg := marketConfig(t, 4, taxPipeline(t))
		cfg.Routing = rc
		return cfg
	}
	straight, err := shard.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := shard.NewSim(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, sim, 40)
	snap := sim.Snapshot()
	resumed, err := shard.RestoreChain(mk(), [][]byte{snap})
	if err != nil {
		t.Fatal(err)
	}
	for resumed.StepWindow() {
	}
	got, err := resumed.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "availability-routed resume P=4", straight, got)
}

// TestRoutingRestoreRefusesModeDrift pins the digest guard on the new
// parameters: a snapshot from an availability-routed run must not load
// into a degree-routed or differently-thresholded engine.
func TestRoutingRestoreRefusesModeDrift(t *testing.T) {
	mk := func(rc shard.RoutingConfig) shard.Config {
		return routedMarket(t, 2, rc)
	}
	sim, err := shard.NewSim(mk(shard.RoutingConfig{Mode: shard.RouteAvailability}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, sim, 5)
	snap := sim.Snapshot()
	for _, rc := range []shard.RoutingConfig{
		{Mode: shard.RouteDegree},
		{Mode: shard.RouteAvailability, HeavyDegree: 7},
	} {
		if _, err := shard.RestoreChain(mk(rc), [][]byte{snap}); err == nil {
			t.Errorf("routing drift %+v accepted at restore", rc)
		}
	}
}

// TestRoutingSteadyStateZeroAlloc extends the PR 8 recycling pin to the
// weighted sampler: once warm, a full availability-routed window — picks
// through the slab trees, lazy rebuilds, the barrier's mirror publish and
// heavy patches — allocates nothing.
func TestRoutingSteadyStateZeroAlloc(t *testing.T) {
	cfg := marketConfig(t, 1, taxPipeline(t))
	cfg.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability}
	e, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 90; i++ {
		if !e.StepWindow() {
			t.Fatalf("horizon exhausted during warmup at window %d", i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !e.StepWindow() {
			t.Fatal("horizon exhausted during measurement")
		}
	})
	if allocs != 0 {
		t.Errorf("weighted steady-state StepWindow allocates %v per window, want 0", allocs)
	}
	if e.Timings().Publish == 0 {
		t.Error("availability run recorded no publish time; the mirror path did not run")
	}
}

// TestRoutingRejectsBadConfig covers the new validation surface.
func TestRoutingRejectsBadConfig(t *testing.T) {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 10, 1)
	base := shard.Config{Graph: g, Shards: 1, Horizon: 1, Workload: w}
	flat := func(t float64) float64 { return 1 }
	env := func(t float64) (float64, float64) { return 1, math.Inf(1) }
	cases := []struct {
		name   string
		mutate func(*shard.Config)
	}{
		{"mode out of range", func(c *shard.Config) { c.Routing.Mode = 7 }},
		{"negative tau", func(c *shard.Config) {
			c.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability, Tau: -1}
		}},
		{"negative floor", func(c *shard.Config) {
			c.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability, Floor: -0.1}
		}},
		{"negative heavy threshold", func(c *shard.Config) {
			c.Routing = shard.RoutingConfig{Mode: shard.RouteDegree, HeavyDegree: -1}
		}},
		{"rejoin rate without envelope", func(c *shard.Config) {
			c.Churn = shard.ChurnConfig{MeanLifespan: 5, MeanDowntime: 2, RejoinRate: flat}
		}},
		{"rejoin rate without churn", func(c *shard.Config) {
			c.Churn = shard.ChurnConfig{RejoinRate: flat, RejoinEnvelope: env}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := shard.New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestShapedRejoinShardInvariance pins the Lewis–Shedler thinned rejoin
// path at the kernel level: a spiked rate with a piecewise-constant
// envelope produces identical results at every shard count, and actually
// changes the outcome relative to constant-rate churn.
func TestShapedRejoinShardInvariance(t *testing.T) {
	mk := func(p int) shard.Config {
		cfg := marketConfig(t, p, nil)
		base := 1 / cfg.Churn.MeanDowntime
		cfg.Churn.RejoinRate = func(t float64) float64 {
			if t >= 5 && t < 10 {
				return 4 * base
			}
			return base / 2
		}
		cfg.Churn.RejoinEnvelope = func(t float64) (float64, float64) {
			switch {
			case t < 5:
				return base / 2, 5
			case t < 10:
				return 4 * base, 10
			}
			return base / 2, math.Inf(1)
		}
		cfg.Churn.RateDigest = 0xbeef
		return cfg
	}
	plain, err := shard.Run(marketConfig(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	base, err := shard.Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == plain.Fingerprint() {
		t.Fatal("shaped rejoins reproduced the constant-rate fingerprint; thinning is dead")
	}
	if base.Joins == 0 {
		t.Fatalf("no rejoins under shaping: %+v", base)
	}
	for _, p := range []int{2, 4, 8} {
		got, err := shard.Run(mk(p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		requireSameResult(t, fmt.Sprintf("shaped rejoin P=%d", p), base, got)
	}
}

// BenchmarkWeightPick measures the per-pick cost of the two ways to draw
// from one peer's neighbor weights: the O(degree) scan over the weight
// slice and the O(log degree) FenFind descent over the peer's slab tree,
// at a typical (20) and a hub (2000) degree. The weights are the
// availability mirror's range, floor 0.05 plus an EWMA in [0, 1].
func BenchmarkWeightPick(b *testing.B) {
	for _, deg := range []int{20, 2000} {
		weights := make([]float32, deg)
		r := xrand.NewSplitMix64(5, 0)
		for i := range weights {
			weights[i] = float32(0.05 + r.Float64())
		}
		tree := make([]float32, deg+1)
		copy(tree[1:], weights)
		total := float64(xrand.FenBuild(tree))
		b.Run(fmt.Sprintf("scan/d%d", deg), func(b *testing.B) {
			r := xrand.NewSplitMix64(7, 0)
			sink := 0
			for i := 0; i < b.N; i++ {
				u := r.Float64() * total
				j := len(weights) - 1
				for k, w := range weights {
					u -= float64(w)
					if u < 0 {
						j = k
						break
					}
				}
				sink += j
			}
			if sink < 0 {
				b.Fatal("unreachable")
			}
		})
		b.Run(fmt.Sprintf("fenfind/d%d", deg), func(b *testing.B) {
			r := xrand.NewSplitMix64(7, 0)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += xrand.FenFind(tree, r.Float64()*total)
			}
			if sink < 0 {
				b.Fatal("unreachable")
			}
		})
	}
}
