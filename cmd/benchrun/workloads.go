package main

import (
	"creditp2p/internal/des"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
)

// spec is one benchmark workload. Configurations are written out here, not
// taken from the scenario presets, so that editing a preset cannot silently
// change what the benchmark measures. Every workload shares the paper's
// overlay family (scale-free, alpha 2.5, mean degree 20, hubs capped at
// maxDegree), the calendar queue and an initial wealth of 20; they differ
// in which kernel layers they load.
type spec struct {
	name    string
	peers   int
	horizon float64
	// window is the conservative-sync window length; 0 keeps the engine
	// default of horizon/128.
	window float64
	// ckptEvery is the delta-checkpoint cadence in windows; 0 disables
	// checkpointing. restores is how many times the final chain is
	// restored after the run.
	ckptEvery int
	restores  int
	// setup installs the workload and its policies into cfg. Workload and
	// policy values hold per-run state, so every call builds fresh ones.
	setup func(cfg *shard.Config) error
}

// workloads are the benchmark's four inputs. The README records why each
// was chosen and which layers it loads.
var workloads = []*spec{
	{
		// Dispatch-bound: no merge, churn, publish or checkpointing runs,
		// and overlay generation is a large share of the time to result.
		name: "market-100k", peers: 100_000, horizon: 8,
		setup: setupMarket,
	},
	{
		// Every window goes through the coordinator's serial k-way merge
		// and canonical apply with income hooks.
		name: "market-policy-50k", peers: 50_000, horizon: 16,
		setup: func(cfg *shard.Config) error {
			if err := setupMarket(cfg); err != nil {
				return err
			}
			tax, err := policy.NewIncomeTax(0.25, 15)
			if err != nil {
				return err
			}
			cfg.Policies = []policy.Policy{tax, policy.NewRedistribute()}
			cfg.PolicyEpoch = cfg.Horizon / 5
			return nil
		},
	},
	{
		// Lifecycle replay, the serial weight-mirror publish and Fenwick
		// picks with lazy rebuilds; the insolvent and offline failure paths
		// are live.
		name: "market-avail-churn-50k", peers: 50_000, horizon: 16,
		setup: func(cfg *shard.Config) error {
			if err := setupMarket(cfg); err != nil {
				return err
			}
			cfg.Churn = shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5}
			cfg.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability}
			return nil
		},
	},
	{
		// Several outbox effects per event, 8x the barriers of the others,
		// and the only workload that writes and reads snapshots. 256
		// windows, so the last checkpoint lands on the final barrier.
		name: "streaming-ckpt-50k", peers: 50_000, horizon: 7.5, window: 30.0 / 1024,
		ckptEvery: 8, restores: 3,
		setup: func(cfg *shard.Config) error {
			w, err := streaming.NewShard(streaming.ShardConfig{
				StreamRate: 4, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.05,
			})
			if err != nil {
				return err
			}
			tax, err := policy.NewIncomeTax(0.3, 20)
			if err != nil {
				return err
			}
			inj, err := policy.NewInjection(1)
			if err != nil {
				return err
			}
			cfg.Workload = w
			cfg.Policies = []policy.Policy{tax, policy.NewRedistribute(), inj}
			cfg.PolicyEpoch = cfg.Horizon / 10
			return nil
		},
	},
}

func setupMarket(cfg *shard.Config) error {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	cfg.Workload = w
	return err
}

// findSpec returns the named workload, or nil.
func findSpec(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// maxDegree caps the overlay's hubs. Uncapped, alpha 2.5 draws a largest
// hub of 11k–72k neighbours among 100k peers depending on the seed, and
// stub matching costs grow with it, so the set-up time followed the seed
// more than the code. 2000 keeps hubs above the routing's heavy-hitter
// threshold (1024).
const maxDegree = 2000

// overlayConfig is the overlay family every workload runs on.
func overlayConfig(peers int) topology.ScaleFreeConfig {
	return topology.ScaleFreeConfig{N: peers, Alpha: 2.5, MeanDegree: 20, MaxDegree: maxDegree}
}

// engineConfig returns a fresh engine configuration over g.
func (sp *spec) engineConfig(g *topology.Graph, lanes int, seed int64) (shard.Config, error) {
	cfg := shard.Config{
		Graph:         g,
		Shards:        lanes,
		Horizon:       sp.horizon,
		Seed:          seed,
		InitialWealth: 20,
		Queue:         des.Calendar,
		Window:        sp.window,
	}
	return cfg, sp.setup(&cfg)
}
