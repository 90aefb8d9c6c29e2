package scenario

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
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

// TestRunShardedReport runs a preset on four lanes through the scenario
// runner and checks the report carries the shard rows.
func TestRunShardedReport(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(sc, ScaleQuick, 4, Resume{})
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
	base, err := Run(sc, ScaleQuick, shards, Resume{})
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
	_, err = Run(sc, ScaleQuick, shards, Resume{CheckpointEvery: 500, ChainSink: bases})
	if err != nil {
		t.Fatal(err)
	}
	snaps := bases.links
	if len(snaps) < 2 {
		t.Fatalf("got %d checkpoints, want at least 2", len(snaps))
	}
	// Resume from a mid-run base, a one-link chain, not the final one, so
	// a real tail of windows replays after the restore.
	resumed, err := Run(sc, ScaleQuick, shards, Resume{
		Chain: [][]byte{snaps[len(snaps)/2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Shard.Fingerprint() != base.Shard.Fingerprint() {
		t.Fatalf("resumed fingerprint %016x != uninterrupted %016x",
			resumed.Shard.Fingerprint(), base.Shard.Fingerprint())
	}
}

// baseSink keeps a copy of every base a checkpointer writes: each one is
// a complete one-link chain.
type baseSink struct{ links [][]byte }

func (b *baseSink) WriteBase(data []byte) error {
	b.links = append(b.links, append([]byte(nil), data...))
	return nil
}

// TestRunShardedFallsBackToLegacy pins that shards <= 1 runs the classic
// single-threaded engines, preserving their byte-identical outputs (the
// goldenhash base lines).
func TestRunShardedFallsBackToLegacy(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.MarketConfig(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := market.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 0} {
		out, err := Run(sc, ScaleQuick, shards, Resume{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Shard != nil {
			t.Fatalf("shards=%d took the sharded path instead of the legacy engines", shards)
		}
		if a, b := fingerprint(t, &Outcome{Market: direct}), fingerprint(t, out); a != b {
			t.Fatalf("shards=%d: runner diverged from the market engine: %s vs %s", shards, b, a)
		}
	}
}

// TestRunShardedResumeCadence resumes a sharded market and streaming run
// from a base captured at another cadence, so the restored event count is
// not a multiple of the resumed run's cadence. The resumed run must finish
// byte-identical to the uninterrupted one and write, byte for byte, the
// checkpoints the uninterrupted run wrote after that point: the cadence
// counts the run's total fired events, not the events since the restore.
func TestRunShardedResumeCadence(t *testing.T) {
	const shards = 2
	// A window barrier fires hundreds of events, so each cadence spans
	// several windows and a run writes a few dozen checkpoints.
	for name, every := range map[string][2]int{"flash-crowd": {2903, 3000}, "taxed-streaming": {797, 700}} {
		t.Run(name, func(t *testing.T) {
			sc, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Run(sc, ScaleQuick, shards, Resume{})
			if err != nil {
				t.Fatal(err)
			}
			run := func(every int, chain [][]byte) (*Outcome, [][]byte) {
				sink := &baseSink{}
				out, err := Run(sc, ScaleQuick, shards, Resume{CheckpointEvery: every, ChainSink: sink, Chain: chain})
				if err != nil {
					t.Fatal(err)
				}
				return out, sink.links
			}
			_, other := run(every[0], nil)
			_, all := run(every[1], nil)
			if len(other) < 3 {
				t.Fatalf("got %d checkpoints, want at least 3", len(other))
			}
			k := len(other) / 3
			cfg, err := sc.ShardConfig(ScaleQuick, shards)
			if err != nil {
				t.Fatal(err)
			}
			s, err := shard.RestoreChain(cfg, [][]byte{other[k]})
			if err != nil {
				t.Fatal(err)
			}
			restored := s.Engine().EventsFired()
			if restored%uint64(every[1]) == 0 {
				t.Fatalf("restored event count %d is a multiple of the cadence %d", restored, every[1])
			}
			resumed, tail := run(every[1], [][]byte{other[k]})
			if a, b := plain.Shard.Fingerprint(), resumed.Shard.Fingerprint(); a != b {
				t.Fatalf("resumed fingerprint %016x != uninterrupted %016x", b, a)
			}
			want := all[checkpointsThrough(t, sc, shards, every[1], restored):]
			if len(tail) != len(want) {
				t.Fatalf("resumed run wrote %d checkpoints, the uninterrupted run %d after the restored point", len(tail), len(want))
			}
			for i := range want {
				if !bytes.Equal(tail[i], want[i]) {
					t.Fatalf("resumed checkpoint %d differs from the uninterrupted run's", i)
				}
			}
		})
	}
}

// checkpointsThrough counts the checkpoints a sharded run at cadence
// every writes at barriers whose total fired count is at most upTo: one
// at the first barrier at or after each multiple of every.
func checkpointsThrough(t *testing.T, sc Scenario, shards, every int, upTo uint64) int {
	t.Helper()
	cfg, err := sc.ShardConfig(ScaleQuick, shards)
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	n, next := 0, uint64(every)
	for s.StepWindow() {
		f := s.Engine().EventsFired()
		if f > upTo {
			break
		}
		if f >= next {
			n++
			next = (f/uint64(every) + 1) * uint64(every)
		}
	}
	return n
}

// TestRunShardedRefusesDeltas pins that the sharded kernel restores no
// chain that still carries the delta links an older build wrote — alone,
// or after their base — and that the error says a checkpoint is one base.
func TestRunShardedRefusesDeltas(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	sink := &baseSink{}
	if _, err := Run(sc, ScaleQuick, shards, Resume{CheckpointEvery: 500, ChainSink: sink}); err != nil {
		t.Fatal(err)
	}
	if len(sink.links) == 0 {
		t.Fatal("no checkpoint written")
	}
	base := sink.links[len(sink.links)-1]
	delta := asDelta(base)
	for name, chain := range map[string][][]byte{
		"base and delta": {base, delta},
		"lone delta":     {delta},
	} {
		if _, err := Run(sc, ScaleQuick, shards, Resume{Chain: chain}); err == nil || !strings.Contains(err.Error(), "a checkpoint is one base") {
			t.Errorf("%s: err %v, want one saying a checkpoint is one base", name, err)
		}
	}
}

// TestRunSingleThreadedRefusesResume pins that shards <= 1 refuses any
// checkpoint or restore request before running: only the sharded kernel
// checkpoints.
func TestRunSingleThreadedRefusesResume(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	sink := &baseSink{}
	for _, shards := range []int{1, 0} {
		for name, rs := range map[string]Resume{
			"cadence": {CheckpointEvery: 500, ChainSink: sink},
			"sink":    {ChainSink: sink},
			"restore": {Chain: [][]byte{{0}}},
		} {
			if _, err := Run(sc, ScaleQuick, shards, rs); !errors.Is(err, ErrBadScenario) || !strings.Contains(err.Error(), "shards > 1") {
				t.Errorf("shards=%d %s: err %v, want ErrBadScenario naming shards > 1", shards, name, err)
			}
		}
	}
	if len(sink.links) != 0 {
		t.Fatalf("a refused run wrote %d checkpoints", len(sink.links))
	}
}

// asDelta re-heads a base as the delta link an older build chained to it
// (link kind 1, index 1, the base's trailer as predecessor CRC), sealed so
// its checksum passes.
func asDelta(base []byte) []byte {
	const linkEnd = 12 + 1 + len("chain") + 1 + 8 + 4 + 8 // header, tag, link fields
	h := snapshot.NewWriter(64)
	h.LinkHeader(snapshot.LinkHeader{Kind: 1, ID: 1, Index: 1, PrevCRC: 1})
	out := snapshot.Seal(nil, [][]byte{h.Frame(), base[linkEnd : len(base)-8]})
	return out
}
