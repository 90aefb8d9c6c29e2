// Command goldenhash fingerprints the simulators' outputs across a battery
// of mechanism combinations. It exists for cross-commit byte-compatibility
// checks during performance work: run it on two trees and diff the lines.
//
// With -resume, it prints only the shard/* lines, each through the sharded
// kernel's crash/restore drill: a clean run counts its window barriers, a
// second run takes periodic bases through the pipelined Checkpointer and
// crashes a third of the way in, and a fresh engine restores the last
// base and runs to completion. The printed hashes are the resumed runs';
// diffing them against the default mode's shard/* lines asserts
// byte-identical resume for every sharded combo. The single-threaded
// engines do not checkpoint.
//
// -shards N sets the lane count of the shard/* lines; the sharded
// kernel's invariance contract makes every printed hash the same for any
// N.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"creditp2p/internal/credit"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/scenario"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

func f64(h interface{ Write([]byte) (int, error) }, v float64) {
	var b [8]byte
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

func series(h interface{ Write([]byte) (int, error) }, s *trace.Series) {
	if s == nil {
		return
	}
	for i := range s.Values {
		f64(h, s.Times[i])
		f64(h, s.Values[i])
	}
}

func hashMarket(res *market.Result) uint64 {
	h := fnv.New64a()
	f64(h, float64(res.SpendEvents))
	f64(h, float64(res.Joins))
	f64(h, float64(res.Departures))
	f64(h, float64(res.TaxCollected))
	f64(h, float64(res.TaxRedistributed))
	f64(h, float64(res.Injected))
	f64(h, res.FinalGini)
	series(h, res.Gini)
	series(h, res.Population)
	series(h, res.Supply)
	for _, sn := range res.Snapshots {
		f64(h, sn.Time)
		for _, v := range sn.Sorted {
			f64(h, v)
		}
	}
	ids := make([]int, 0, len(res.FinalWealth))
	for id := range res.FinalWealth {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f64(h, float64(id))
		f64(h, float64(res.FinalWealth[id]))
		f64(h, res.SpendingRate[id])
	}
	return h.Sum64()
}

func hashStreaming(res *streaming.Result) uint64 {
	h := fnv.New64a()
	f64(h, float64(res.ChunksTraded))
	f64(h, float64(res.ChunksSeeded))
	f64(h, float64(res.Stalls))
	f64(h, float64(res.Departures))
	f64(h, res.GiniSpending)
	f64(h, res.GiniWealth)
	series(h, res.WealthGini)
	ids := make([]int, 0, len(res.FinalWealth))
	for id := range res.FinalWealth {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f64(h, float64(id))
		f64(h, float64(res.FinalWealth[id]))
		f64(h, res.SpendingRate[id])
		f64(h, res.DownloadRate[id])
		f64(h, res.Continuity[id])
	}
	return h.Sum64()
}

// hashStreamingPolicy extends hashStreaming with the policy counters the
// engine added to the streaming Result. A separate hash keeps the
// pre-engine streaming lines byte-stable.
func hashStreamingPolicy(res *streaming.Result) uint64 {
	h := fnv.New64a()
	u64(h, hashStreaming(res))
	f64(h, float64(res.TaxCollected))
	f64(h, float64(res.TaxRedistributed))
	f64(h, float64(res.Injected))
	return h.Sum64()
}

func u64(h interface{ Write([]byte) (int, error) }, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

func marketGraph(n, d int, seed int64) *topology.Graph {
	g, err := topology.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return g
}

func scaleFree(n int, seed int64) *topology.Graph {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 12}, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return g
}

func poisson() credit.Pricing {
	p, err := credit.NewPoissonPricing(1.5, 0, xrand.New(9))
	if err != nil {
		panic(err)
	}
	return p
}

// memChain is the drill's in-memory checkpoint sink. It keeps a copy of
// the latest base: the checkpointer recycles its sealed buffer once a
// write returns.
type memChain struct {
	chain [][]byte
}

func (m *memChain) WriteBase(data []byte) error {
	m.chain = [][]byte{append([]byte(nil), data...)}
	return nil
}

// runShard produces a sharded combo's Result: a plain run by default;
// under -resume, the crash/restore drill through the pipelined
// Checkpointer. A clean run counts the windows; a second run takes a base
// every eighth of the way to the crash point (a third of the way in) and
// a last one at the crash barrier; a fresh engine restores the sink's
// base. The restored state must be byte-identical to a full snapshot of
// the crashed run at the same barrier.
func runShard(mk func() shard.Config, resume bool) (*shard.Result, error) {
	if !resume {
		return shard.Run(mk())
	}
	sim, err := shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	windows := 0
	for sim.StepWindow() {
		windows++
	}
	if _, err := sim.Finish(); err != nil {
		return nil, err
	}

	sim, err = shard.NewSim(mk())
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	sink := &memChain{}
	ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
	crash := windows / 3
	every := crash / 8
	if every < 1 {
		every = 1
	}
	for i := 0; i < crash && sim.StepWindow(); i++ {
		if (i+1)%every == 0 && i+1 < crash {
			if err := ck.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	if err := ck.Checkpoint(); err != nil {
		return nil, err
	}
	if err := ck.Close(); err != nil {
		return nil, err
	}
	full := sim.Snapshot() // reference full capture at the crash barrier

	restored, err := shard.RestoreChain(mk(), sink.chain)
	if err != nil {
		return nil, err
	}
	if got := restored.Snapshot(); !bytes.Equal(got, full) {
		return nil, fmt.Errorf("restored base diverges from the full snapshot: %d vs %d bytes",
			len(got), len(full))
	}
	for restored.StepWindow() {
	}
	return restored.Finish()
}

// shardLines prints the sharded-kernel fingerprint lines. These print in
// every mode: the default mode pins the sharded model's outputs (which
// must also be identical for every -shards value), and -resume runs the
// sharded checkpoint/restore drill — so diffing the two asserts
// byte-identical recovery for the sharded engine.
func shardLines(shards int, resume bool) {
	cases := []struct {
		name    string
		preset  string
		routing shard.Routing // non-uniform: override the preset's mode
	}{
		{"market-churn", "flash-crowd", shard.RouteUniform},
		{"market-policy", "demurrage", shard.RouteUniform},
		{"streaming-tax", "taxed-streaming", shard.RouteUniform},
		// Routing-mode coverage: demurrage above routes degree-weighted and
		// adaptive-tax routes availability-weighted per its preset (static
		// mirrors — both presets are churn-free); diurnal-churn exercises
		// the thinned rejoin shaping; the flash-crowd override composes
		// availability routing WITH churn, so the barrier's EWMA mirror
		// publish and heavy-tree patching are on the hashed path. Each line
		// must hash identically for every -shards value and survive the
		// resume drill.
		{"market-avail", "adaptive-tax", shard.RouteUniform},
		{"market-diurnal", "diurnal-churn", shard.RouteUniform},
		{"market-avail-churn", "flash-crowd", shard.RouteAvailability},
	}
	for _, c := range cases {
		sc, err := scenario.Get(c.preset)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		routing := c.routing
		mk := func() shard.Config {
			cfg, err := sc.ShardConfig(scenario.ScaleQuick, shards)
			if err != nil {
				panic(c.name + ": " + err.Error())
			}
			if routing != shard.RouteUniform {
				cfg.Routing.Mode = routing
			}
			return cfg
		}
		res, err := runShard(mk, resume)
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("shard/%-19s %016x\n", c.name, res.Fingerprint())
	}
}

func main() {
	resume := flag.Bool("resume", false, "print only the shard/* lines, each run through the sharded crash/checkpoint/restore drill")
	shards := flag.Int("shards", 1, "lane count for the shard/* lines; the sharded kernel's invariance contract makes the printed hashes identical for any value")
	flag.Parse()

	if *resume {
		shardLines(*shards, true)
		return
	}

	// tax is the Sec. VI-C tax: IncomeTax collects, Redistribute pays the
	// pot back out in whole rounds.
	tax := func(extra ...policy.Policy) []policy.Policy {
		it, err := policy.NewIncomeTax(0.25, 15)
		if err != nil {
			panic(err)
		}
		return append([]policy.Policy{it, policy.NewRedistribute()}, extra...)
	}
	injection := func(amount int64) *policy.Injection {
		in, err := policy.NewInjection(amount)
		if err != nil {
			panic(err)
		}
		return in
	}
	churn := &market.ChurnConfig{ArrivalRate: 0.5, MeanLifespan: 150, AttachDegree: 4, Preferential: true}
	fastChurn := &market.ChurnConfig{ArrivalRate: 0.5, MeanLifespan: 150, AttachDegree: 4, FastAttach: true}
	cases := []struct {
		name string
		mk   func() market.Config
	}{
		{"baseline", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 1), InitialWealth: 20, DefaultMu: 1, Horizon: 400, SnapshotTimes: []float64{100, 300}, Seed: 2}
		}},
		{"tax+inject", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 3), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Policies: tax(injection(2)), PolicyEpoch: 60, Seed: 4}
		}},
		{"churn", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 5), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Churn: churn, Seed: 6}
		}},
		{"degree", func() market.Config {
			return market.Config{Graph: scaleFree(200, 7), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteDegreeWeighted, Seed: 8}
		}},
		{"degree+churn", func() market.Config {
			return market.Config{Graph: scaleFree(200, 9), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteDegreeWeighted, Churn: churn, Seed: 10}
		}},
		{"avail", func() market.Config {
			return market.Config{Graph: scaleFree(200, 11), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability, Seed: 12}
		}},
		{"avail+churn+tax", func() market.Config {
			return market.Config{Graph: scaleFree(200, 13), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability, Churn: churn, Policies: tax(), Seed: 14}
		}},
		{"freeriders", func() market.Config {
			return market.Config{Graph: scaleFree(200, 15), InitialWealth: 15, DefaultMu: 1, Horizon: 300, FreeRiderFrac: 0.25, Seed: 16}
		}},
		// The calendar+incgini and incgini lines keep their historical
		// names so the output stays byte-identical.
		{"calendar+incgini", func() market.Config {
			return market.Config{Graph: scaleFree(400, 17), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Churn: fastChurn, Seed: 18}
		}},
		{"dynamic", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 19), InitialWealth: 20, DefaultMu: 1, Horizon: 400, Spending: credit.DynamicSpending{M: 20}, Seed: 20}
		}},
	}
	for _, c := range cases {
		res, err := market.Run(c.mk())
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("market/%-18s %016x\n", c.name, hashMarket(res))
	}

	scases := []struct {
		name string
		mk   func() streaming.Config
	}{
		{"baseline", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 21), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, Seed: 22}
		}},
		{"hetero+drain", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 23), StreamRate: 2, DelaySeconds: 6, UploadCap: 1, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, UploadCapOf: map[int]int{1: 8, 2: 8}, Departures: []streaming.Departure{{ID: 1, AtSecond: 60}, {ID: 5, AtSecond: 90}}, Seed: 24}
		}},
		{"incgini", func() streaming.Config {
			return streaming.Config{Graph: scaleFree(200, 25), StreamRate: 1, DelaySeconds: 10, UploadCap: 1, DownloadCap: 2, SourceSeeds: 5, InitialWealth: 12, HorizonSeconds: 150, Seed: 26}
		}},
		{"poisson-pricing", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 27), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 20, HorizonSeconds: 150, Pricing: poisson(), Seed: 28}
		}},
	}
	for _, c := range scases {
		res, err := streaming.Run(c.mk())
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("streaming/%-15s %016x\n", c.name, hashStreaming(res))
	}

	// Policy-engine modes. These lines extend the battery; the combos
	// above keep their historical names and fingerprints.
	adaptive := func() *policy.AdaptiveTax {
		at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{
			TargetGini: 0.3, Gain: 0.5, MaxRate: 0.7, Threshold: 15,
		})
		if err != nil {
			panic(err)
		}
		return at
	}
	demurrage := func() *policy.Demurrage {
		d, err := policy.NewDemurrage(0.05, 30)
		if err != nil {
			panic(err)
		}
		return d
	}
	subsidy := func(fromPot bool) *policy.NewcomerSubsidy {
		s, err := policy.NewNewcomerSubsidy(5, fromPot)
		if err != nil {
			panic(err)
		}
		return s
	}
	incomeTax := func() *policy.IncomeTax {
		it, err := policy.NewIncomeTax(0.3, 12)
		if err != nil {
			panic(err)
		}
		return it
	}
	pcases := []struct {
		name string
		mk   func() market.Config
	}{
		{"adaptive-tax", func() market.Config {
			return market.Config{Graph: scaleFree(200, 29), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Routing: market.RouteAvailability,
				Policies: []policy.Policy{adaptive(), policy.NewRedistribute()}, PolicyEpoch: 10, Seed: 30}
		}},
		{"demurrage+subsidy", func() market.Config {
			return market.Config{Graph: scaleFree(200, 31), InitialWealth: 15, DefaultMu: 1, Horizon: 300, Churn: fastChurn,
				Policies: []policy.Policy{demurrage(), subsidy(true), policy.NewRedistribute()}, PolicyEpoch: 15, Seed: 32}
		}},
		// The name predates the injection stage; kept so the output
		// stays byte-identical.
		{"binomial-tax+legacy-inject", func() market.Config {
			return market.Config{Graph: marketGraph(80, 8, 33), InitialWealth: 20, DefaultMu: 1, Horizon: 400,
				Policies: []policy.Policy{injection(1), incomeTax(), policy.NewRedistribute()}, PolicyEpoch: 60, Seed: 34}
		}},
	}
	for _, c := range pcases {
		res, err := market.Run(c.mk())
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("market-policy/%-25s %016x\n", c.name, hashMarket(res))
	}

	spcases := []struct {
		name string
		mk   func() streaming.Config
	}{
		{"tax+inject", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 35), StreamRate: 2, DelaySeconds: 6, UploadCap: 1, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, UploadCapOf: map[int]int{1: 8, 2: 8},
				Policies: []policy.Policy{incomeTax(), policy.NewRedistribute(), injection(1)}, PolicyEpoch: 20, Seed: 36}
		}},
		{"demurrage+drain", func() streaming.Config {
			return streaming.Config{Graph: marketGraph(60, 8, 37), StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 150, Departures: []streaming.Departure{{ID: 1, AtSecond: 60}},
				Policies: []policy.Policy{demurrage(), policy.NewRedistribute()}, PolicyEpoch: 25, Seed: 38}
		}},
	}
	for _, c := range spcases {
		res, err := streaming.Run(c.mk())
		if err != nil {
			panic(c.name + ": " + err.Error())
		}
		fmt.Printf("streaming-policy/%-22s %016x\n", c.name, hashStreamingPolicy(res))
	}

	shardLines(*shards, false)

	for _, name := range []string{
		"flash-crowd", "free-rider-mix", "diurnal-churn", "seeder-drain",
		"adaptive-tax", "demurrage", "newcomer-subsidy", "taxed-streaming",
	} {
		out, err := scenario.RunNamed(name, scenario.ScaleQuick)
		if err != nil {
			panic(name + ": " + err.Error())
		}
		var sum uint64
		if out.Market != nil {
			sum = hashMarket(out.Market)
		} else {
			sum = hashStreaming(out.Streaming)
		}
		fmt.Printf("scenario/%-16s %016x\n", name, sum)
	}
}
