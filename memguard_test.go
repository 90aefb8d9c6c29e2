package creditp2p

// Memory-regression guards for the million-peer memory diet. Each guard
// runs a mid-size simulation (seconds, so it rides in the ordinary CI test
// pass), measures the heap growth across the run without forcing a
// collection — steady-state allocation is near zero, so the post-run heap
// approximates the engine's live footprint — and asserts a bytes/peer
// ceiling. The ceilings carry ~2x headroom over the measured footprint
// (market ~700 B/peer, streaming ~830 B/peer at these configs, graph and
// result maps included), loose enough for allocator and GC-timing jitter,
// tight enough that undoing the structure-of-arrays diet (per-peer slice
// headers, int64 chunk windows, map-backed state) trips them immediately.

import (
	"runtime"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

func measureHeapGrowth(t *testing.T, run func()) uint64 {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc <= before.HeapAlloc {
		t.Fatal("heap did not grow across the run; measurement is broken")
	}
	return after.HeapAlloc - before.HeapAlloc
}

func TestMarketMemoryPerPeerCeiling(t *testing.T) {
	const n = 20_000
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 20}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	grown := measureHeapGrowth(t, func() {
		if _, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Horizon:       4,
			Seed:          8,
		}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1400 // bytes/peer; ~2x the measured diet footprint
	perPeer := grown / n
	t.Logf("market engine footprint: %d B/peer (ceiling %d)", perPeer, ceiling)
	if perPeer > ceiling {
		t.Errorf("market run retained %d B/peer, ceiling %d — the memory diet regressed", perPeer, ceiling)
	}
}

func TestStreamingMemoryPerPeerCeiling(t *testing.T) {
	const n = 20_000
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 20}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	grown := measureHeapGrowth(t, func() {
		if _, err := RunStreaming(StreamingConfig{
			Graph:          g,
			StreamRate:     1,
			DelaySeconds:   10,
			UploadCap:      1,
			DownloadCap:    2,
			SourceSeeds:    6,
			InitialWealth:  12,
			HorizonSeconds: 20,
			Seed:           10,
		}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1700 // bytes/peer; ~2x the measured diet footprint
	perPeer := grown / n
	t.Logf("streaming engine footprint: %d B/peer (ceiling %d)", perPeer, ceiling)
	if perPeer > ceiling {
		t.Errorf("streaming run retained %d B/peer, ceiling %d — the memory diet regressed", perPeer, ceiling)
	}
}

// TestShardRoutingMemoryPerPeerCeiling guards the weighted sampler's side
// arrays on the sharded kernel: the Fenwick slab is (degree+1) floats per
// peer (~168 B at mean degree 20) and the mirror/EWMA/total columns add
// 32 B, on top of the engine's own CSR, stream, balance and queue state.
// The ceiling carries ~2x headroom over the measured footprint; per-tree
// headers or a map-backed mirror would trip it immediately.
func TestShardRoutingMemoryPerPeerCeiling(t *testing.T) {
	const n = 20_000
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 20}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	grown := measureHeapGrowth(t, func() {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shard.Run(shard.Config{
			Graph:         g,
			Shards:        2,
			Horizon:       5,
			Seed:          8,
			InitialWealth: 20,
			Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
			Routing:       shard.RoutingConfig{Mode: shard.RouteAvailability},
			Workload:      w,
		}); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1000 // bytes/peer; ~2x the measured ~490 B/peer footprint
	perPeer := grown / n
	t.Logf("sharded availability-routed footprint: %d B/peer (ceiling %d)", perPeer, ceiling)
	if perPeer > ceiling {
		t.Errorf("routed shard run retained %d B/peer, ceiling %d — the sampler side arrays regressed", perPeer, ceiling)
	}
}
