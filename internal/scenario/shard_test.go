package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"creditp2p/internal/shard"
)

// TestShardScenarioCountInvariance compiles real presets onto the
// sharded kernel at quick scale and requires byte-identical results for
// every shard count. This is the scenario-layer end of the contract the
// shard package's own matrix tests pin on hand-built configs: the
// preset → ShardConfig compilation (topology build, churn derivation,
// arrival-pattern shaping, routing mapping, policy pipeline, workload
// mapping) must not smuggle any lane-layout dependence into the run.
// flash-crowd and diurnal-churn cover the thinned rejoin shaping;
// demurrage covers degree routing; adaptive-tax covers availability
// routing under a policy pipeline.
func TestShardScenarioCountInvariance(t *testing.T) {
	for _, name := range []string{
		"flash-crowd", "taxed-streaming", "diurnal-churn", "demurrage", "adaptive-tax",
	} {
		sc, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(p int) *shard.Result {
			cfg, err := sc.ShardConfig(ScaleQuick, p)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			res, err := shard.Run(cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			return res
		}
		base := run(1)
		if base.Events == 0 || base.Transfers == 0 {
			t.Fatalf("%s: degenerate baseline: %+v", name, base)
		}
		for _, p := range []int{2, 4, 8} {
			got := run(p)
			if got.Fingerprint() != base.Fingerprint() {
				t.Errorf("%s: P=%d fingerprint %016x != P=1 %016x\nbase: %+v\n got: %+v",
					name, p, got.Fingerprint(), base.Fingerprint(), base, got)
			}
		}
	}
}

// TestShardScenarioRoutingCompiles pins the preset → kernel routing
// mapping: presets declaring weighted market routing must compile to the
// matching shard mode (and shaped-churn presets must carry a rate
// digest), so the sharded runs actually exercise what the preset names.
func TestShardScenarioRoutingCompiles(t *testing.T) {
	cases := []struct {
		preset string
		mode   shard.Routing
		shaped bool
	}{
		{"flash-crowd", shard.RouteUniform, true},
		{"diurnal-churn", shard.RouteUniform, true},
		{"demurrage", shard.RouteDegree, false},
		{"adaptive-tax", shard.RouteAvailability, false},
		{"free-rider-mix", shard.RouteUniform, false},
	}
	for _, c := range cases {
		sc, err := Get(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.ShardConfig(ScaleQuick, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.preset, err)
		}
		if cfg.Routing.Mode != c.mode {
			t.Errorf("%s compiles to routing %v, want %v", c.preset, cfg.Routing.Mode, c.mode)
		}
		if shaped := cfg.Churn.RejoinRate != nil; shaped != c.shaped {
			t.Errorf("%s: shaped rejoins = %v, want %v", c.preset, shaped, c.shaped)
		}
		if c.shaped && (cfg.Churn.RejoinEnvelope == nil || cfg.Churn.RateDigest == 0) {
			t.Errorf("%s: shaped churn missing envelope or rate digest", c.preset)
		}
	}
}

// TestRunShardedReport runs a preset through the public sharded entry
// point and checks the report carries the shard rows.
func TestRunShardedReport(t *testing.T) {
	out, err := RunShardedNamed("flash-crowd", ScaleQuick, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Shards != 4 || out.Shard == nil {
		t.Fatalf("outcome not sharded: %+v", out)
	}
	var sb strings.Builder
	if err := out.Report(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"shards", "4", "lost in flight", "final wealth Gini"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	if out.Events() != out.Shard.Transfers {
		t.Fatalf("Events() %d != shard transfers %d", out.Events(), out.Shard.Transfers)
	}
}

// TestRunShardedResumableParity checkpoints a sharded policy-enabled run
// mid-flight, resumes from a captured base, and requires the resumed
// run's result to be byte-identical to the uninterrupted one — the
// scenario-layer end of the shard.Sim crash/resume contract, through the
// same entry point cmd/experiments -shards -checkpoint-every uses.
func TestRunShardedResumableParity(t *testing.T) {
	sc, err := Get("taxed-streaming")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	base, err := RunSharded(sc, ScaleQuick, shards)
	if err != nil {
		t.Fatal(err)
	}
	if base.Timings == nil || base.Timings.Windows == 0 {
		t.Fatalf("sharded outcome missing timings: %+v", base.Timings)
	}
	if base.Timings.MergedEvents == 0 {
		t.Fatal("policy-enabled run merged no events; the checkpoint would not cover the merge path")
	}
	bases := &baseSink{}
	_, err = RunShardedResumable(sc, ScaleQuick, shards, Resume{CheckpointEvery: 500, ChainSink: bases})
	if err != nil {
		t.Fatal(err)
	}
	snaps := bases.links
	if len(snaps) < 2 {
		t.Fatalf("got %d checkpoints, want at least 2", len(snaps))
	}
	// Resume from a mid-run base, a one-link chain, not the final one, so
	// a real tail of windows replays after the restore.
	resumed, err := RunShardedResumable(sc, ScaleQuick, shards, Resume{
		Chain: [][]byte{snaps[len(snaps)/2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Shard.Fingerprint() != base.Shard.Fingerprint() {
		t.Fatalf("resumed fingerprint %016x != uninterrupted %016x",
			resumed.Shard.Fingerprint(), base.Shard.Fingerprint())
	}
	// The single-threaded engines' Sink and Snapshot have no sharded
	// meaning; a sharded run refuses them rather than ignoring them.
	for name, rs := range map[string]Resume{
		"sink":     {CheckpointEvery: 500, Sink: func([]byte) error { return nil }},
		"snapshot": {Snapshot: snaps[0]},
	} {
		if _, err := RunShardedResumable(sc, ScaleQuick, shards, rs); !errors.Is(err, ErrBadScenario) {
			t.Errorf("%s: sharded run with a single-engine %s: err %v, want ErrBadScenario", name, name, err)
		}
	}
}

// baseSink keeps a copy of every link a deltas-off checkpointer writes:
// each one is a base, a complete one-link chain.
type baseSink struct{ links [][]byte }

func (b *baseSink) WriteBase(data []byte) error {
	b.links = append(b.links, append([]byte(nil), data...))
	return nil
}

func (b *baseSink) WriteDelta(index int, _ []byte) error {
	return fmt.Errorf("deltas-off checkpointer wrote delta %d", index)
}

// TestRunShardedFallsBackToLegacy pins that shards <= 1 routes to the
// classic single-threaded engines, preserving their byte-identical
// outputs (the goldenhash base lines).
func TestRunShardedFallsBackToLegacy(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Run(sc, ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	viaSharded, err := RunSharded(sc, ScaleQuick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if viaSharded.Shard != nil {
		t.Fatal("shards=1 took the sharded path instead of the legacy engines")
	}
	if a, b := fingerprint(t, legacy), fingerprint(t, viaSharded); a != b {
		t.Fatalf("legacy fallback diverged: %s vs %s", a, b)
	}
}
