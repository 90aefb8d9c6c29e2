package scenario

import (
	"fmt"
	"math"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

// This file compiles scenarios onto the sharded multi-core kernel
// (internal/shard). The sharded engine is its own model — open-loop
// workloads, fixed-slot lifecycle churn, barrier-granular credit
// visibility — so a sharded run is not byte-comparable to the
// single-threaded engines' output; what it guarantees instead is that
// its own output is byte-identical at every shard count. The mapping
// below reuses the scenario's declared knobs where the models share a
// concept (population, horizon, endowment, spending rate, free riders,
// seeds, policy pipeline) and derives the rest:
//
//   - Lifecycle churn: the declared MeanLifespan (horizon-compressed as
//     usual) sets the online spell; the offline spell is a quarter of it,
//     keeping a ~80% steady-state availability — the open-network regime
//     of Sec. VI-E over a fixed peer-slot table.
//   - Streaming seeds: the declared seeder fraction, or the SourceSeeds
//     count converted to a fraction of the declared population.
//   - Arrival-pattern shaping (flash crowds, diurnal cycles): the
//     declared pattern modulates the rejoin rate of the fixed-slot
//     lifecycle process — rateFn's shape (evaluated at base rate 1)
//     multiplies the constant 1/MeanDowntime, and the same
//     piecewise-constant envelope drives Lewis–Shedler thinning inside
//     the kernel. A flash crowd pulls departed peers back online during
//     the spike; a diurnal cycle swings the online population with the
//     declared period.
//   - Routing: the declared market routing mode (uniform, degree,
//     availability) compiles onto the kernel's barrier-frozen weighted
//     samplers for market and streaming workloads alike.

// ShardConfig compiles the scenario into a sharded-kernel configuration
// at the given scale and shard count. Shards=1 is the reference lane
// layout: the same model and the same bytes as any other shard count,
// single-threaded.
func (sc Scenario) ShardConfig(scale Scale, shards int) (shard.Config, error) {
	d, err := sc.dims(scale)
	if err != nil {
		return shard.Config{}, err
	}
	g, err := sc.Topology.build(d.n, xrand.New(sc.Seed))
	if err != nil {
		return shard.Config{}, err
	}
	cfg := shard.Config{
		Graph:         g,
		Shards:        shards,
		Horizon:       d.horizon,
		Seed:          sc.Seed,
		InitialWealth: sc.Credit.InitialWealth,
	}
	if sc.Churn.Pattern != ChurnNone && sc.Churn.MeanLifespan > 0 {
		life := sc.Churn.MeanLifespan * d.ratio
		cfg.Churn = shard.ChurnConfig{MeanLifespan: life, MeanDowntime: life / 4}
		// Time-varying arrival patterns modulate the rejoin rate: rateFn
		// at base rate 1 yields the pure shape (1 outside a flash-crowd
		// spike, 1+amp*sin for diurnal), scaled by the constant rejoin
		// rate. Constant churn returns nil shapes — the exact one-draw
		// path, byte-identical to the pre-shaping kernel.
		shape, env, err := sc.Churn.rateFn(1, d.horizon)
		if err != nil {
			return shard.Config{}, err
		}
		if shape != nil {
			base := 1 / cfg.Churn.MeanDowntime
			cfg.Churn.RejoinRate = func(t float64) float64 { return base * shape(t) }
			cfg.Churn.RejoinEnvelope = func(t float64) (float64, float64) {
				r, until := env(t)
				return base * r, until
			}
			cfg.Churn.RateDigest = sc.Churn.shapeDigest(d.horizon)
		}
	}
	switch sc.Market.Routing {
	case market.RouteDegreeWeighted:
		cfg.Routing.Mode = shard.RouteDegree
	case market.RouteAvailability:
		cfg.Routing.Mode = shard.RouteAvailability
	}

	// The policy pipeline compiles exactly like the streaming path.
	if cfg.Policies, cfg.PolicyEpoch, err = sc.Credit.enginePipeline(d.horizon); err != nil {
		return shard.Config{}, err
	}

	switch sc.Workload {
	case WorkloadMarket:
		w, err := market.NewShard(market.ShardConfig{
			Mu:            sc.Market.DefaultMu,
			Amount:        1,
			FreeRiderFrac: sc.Market.FreeRiderFrac,
		})
		if err != nil {
			return shard.Config{}, err
		}
		cfg.Workload = w
	case WorkloadStreaming:
		frac := sc.Streaming.SeederFrac
		if frac == 0 && sc.Streaming.SourceSeeds > 0 {
			frac = float64(sc.Streaming.SourceSeeds) / float64(sc.Topology.N)
		}
		w, err := streaming.NewShard(streaming.ShardConfig{
			StreamRate:  sc.Streaming.StreamRate,
			ChunkPrice:  1,
			RoundPeriod: 1.0,
			SeedFrac:    frac,
		})
		if err != nil {
			return shard.Config{}, err
		}
		cfg.Workload = w
	default:
		return shard.Config{}, fmt.Errorf("%w: workload %d", ErrBadScenario, int(sc.Workload))
	}
	return cfg, nil
}

// shapeDigest identifies the compiled rejoin-shape functions for the
// snapshot config digest (closures cannot be hashed): the pattern, the
// horizon it was compiled against, and every shape parameter.
func (c Churn) shapeDigest(horizon float64) uint64 {
	h := uint64(14695981039346656037)
	fold := func(v uint64) { h = (h ^ v) * 1099511628211 }
	fold(uint64(c.Pattern))
	fold(math.Float64bits(horizon))
	fold(math.Float64bits(c.SpikeStart))
	fold(math.Float64bits(c.SpikeLen))
	fold(math.Float64bits(c.SpikeFactor))
	fold(math.Float64bits(c.Period))
	fold(math.Float64bits(c.Amplitude))
	return h
}

// reportShard renders the sharded-run rows of the outcome table.
func (o *Outcome) reportShard(tab *trace.Table) {
	r := o.Shard
	tab.AddRow("shards", fmt.Sprint(o.Shards))
	if o.Routing != "" {
		tab.AddRow("routing", o.Routing)
	}
	tab.AddRow("events", fmt.Sprint(r.Events))
	tab.AddRow("transfers", fmt.Sprint(r.Transfers))
	tab.AddRow("joins / departures", fmt.Sprintf("%d / %d", r.Joins, r.Departures))
	tab.AddRow("lost in flight", fmt.Sprintf("%d (%d credits)", r.LostInFlight, r.LostAmount))
	tab.AddFloats("final wealth Gini", r.FinalGini)
	tab.AddFloats("stabilized Gini (tail-10)", r.Gini.Tail(10))
	tab.AddFloats("final population", float64(r.FinalPopulation))
	tab.AddRow("tax collected / redistributed", fmt.Sprintf("%d / %d", r.TaxCollected, r.TaxRedistributed))
	tab.AddRow("injected", fmt.Sprint(r.Injected))
	if math.IsNaN(r.FinalGini) {
		tab.AddRow("warning", "empty population at horizon")
	}
}
