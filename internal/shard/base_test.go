package shard_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"creditp2p/internal/shard"
)

// TestBaseFormatPinned pins the checkpoint base's bytes: a Checkpointer
// base taken at a fixed barrier of three 2-lane runs must hash to the
// recorded digest. The runs use 3,000 peers, so every lane carries several
// 512-peer segments and several scheduler slab segments. Any change to the base layout — section order, segment
// count or ids, field encodings — fails here, so a layout change has to
// be a deliberate format bump rather than a side effect.
func TestBaseFormatPinned(t *testing.T) {
	cases := []struct {
		name    string
		cfg     func(*testing.T) shard.Config
		windows int
		size    int
		sha256  string
	}{
		{"market/uniform", func(t *testing.T) shard.Config {
			return marketConfig(t, 2, nil)
		}, 40, 301310, "bfc019fb6957752ec093f240073cabcb359c4513e65612cb70faa4fb6b3dedd2"},
		{"market/availability+churn", func(t *testing.T) shard.Config {
			return routedMarket(t, 2, shard.RoutingConfig{Mode: shard.RouteAvailability})
		}, 40, 433598, "2fac2ed2e245d66c52b7ef57a00c4ed3266e721482c6a6a6fd1761a8215b3c5f"},
		{"streaming/tax+redistribute+inject", func(t *testing.T) shard.Config {
			return streamingConfig(t, 2, taxPipeline(t))
		}, 30, 299421, "4d89016c4f79d0acb2fb4edcb62d02c3a97799940a15c669580ea1153a3ca90f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			cfg.Graph = testGraph(t, 3000, 45)
			sim, err := shard.NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Start(); err != nil {
				t.Fatal(err)
			}
			stepWindows(t, sim, c.windows)
			sink := &memChain{}
			checkpointSync(t, shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{}))
			if len(sink.chain) != 1 {
				t.Fatalf("checkpoint wrote %d links, want one base", len(sink.chain))
			}
			sum := sha256.Sum256(sink.chain[0])
			got := hex.EncodeToString(sum[:])
			if len(sink.chain[0]) != c.size || got != c.sha256 {
				t.Errorf("base is %d bytes with sha256 %s, pinned %d bytes with %s", len(sink.chain[0]), got, c.size, c.sha256)
			}
		})
	}
}
