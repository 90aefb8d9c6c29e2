package shard_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"creditp2p/internal/fault"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

// memChain is an in-memory ChainSink mirroring snapshot.ChainStore: each
// base replaces the last. It copies every base — the checkpointer
// recycles the sealed buffer after the write returns — and counts the
// writes and the bytes written.
type memChain struct {
	writes int
	bytes  uint64
	chain  [][]byte
}

func (m *memChain) WriteBase(data []byte) error {
	m.writes++
	m.bytes += uint64(len(data))
	m.chain = [][]byte{append([]byte(nil), data...)}
	return nil
}

// lenSink is a ChainSink that keeps only the size of the last base, so
// its writes allocate nothing.
type lenSink struct{ writes, last int }

func (s *lenSink) WriteBase(data []byte) error {
	s.writes++
	s.last = len(data)
	return nil
}

// stepWindows advances a run by n window barriers, failing the test if
// the horizon arrives first.
func stepWindows(t testing.TB, s *shard.Sim, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !s.StepWindow() {
			t.Fatal("horizon reached before the checkpoint plan completed")
		}
	}
}

// checkpointSync takes one pipelined checkpoint and drains the write, so
// the sink holds it when it returns.
func checkpointSync(t testing.TB, c *shard.Checkpointer) {
	t.Helper()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func cloneChain(chain [][]byte) [][]byte {
	out := make([][]byte, len(chain))
	copy(out, chain)
	return out
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

// checkpointParity is the pipelined checkpoint's central property:
// restoring the base a Checkpointer wrote at a barrier is byte-identical
// to a full snapshot of the same run at the same barrier, at every shard
// count given and at every one of several successive checkpoints, and the
// resumed run finishes with the straight run's exact result. A lockstep
// reference sim supplies the full snapshot; the deterministic snapshot ID
// makes the byte comparison exact.
func checkpointParity(t *testing.T, name string, shards []int, cfg func(p int) shard.Config) {
	t.Helper()
	const (
		warmup      = 30 // windows before the first checkpoint
		between     = 2  // windows between checkpoints
		checkpoints = 4
	)
	for _, p := range shards {
		label := fmt.Sprintf("%s P=%d", name, p)
		straight, err := shard.Run(cfg(p))
		if err != nil {
			t.Fatal(err)
		}
		start := func() *shard.Sim {
			s, err := shard.NewSim(cfg(p))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return s
		}
		sim, ref := start(), start()
		sink := &memChain{}
		ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})

		var restored *shard.Sim
		for k := 0; k < checkpoints; k++ {
			n := warmup
			if k > 0 {
				n = between
			}
			stepWindows(t, sim, n)
			stepWindows(t, ref, n)
			checkpointSync(t, ck)
			if len(sink.chain) != 1 || sink.writes != k+1 {
				t.Fatalf("%s: %d writes leave a %d-link chain, want %d writes of one base",
					label, sink.writes, len(sink.chain), k+1)
			}
			restored, err = shard.RestoreChain(cfg(p), cloneChain(sink.chain))
			if err != nil {
				t.Fatalf("%s checkpoint %d: %v", label, k, err)
			}
			if restored.Now() != sim.Now() {
				t.Fatalf("%s: restored at t=%v, checkpointed at t=%v", label, restored.Now(), sim.Now())
			}
			if want, got := ref.Snapshot(), restored.Snapshot(); !bytes.Equal(got, want) {
				t.Fatalf("%s checkpoint %d: restore diverges from the full snapshot: %d vs %d bytes",
					label, k, len(got), len(want))
			}
		}
		if st := ck.Stats(); st.Bases != checkpoints || st.BaseBytes != sink.bytes || st.Deltas != 0 || st.DeltaBytes != 0 {
			t.Fatalf("%s: stats %+v, want %d bases of %d sealed bytes and nothing else", label, st, checkpoints, sink.bytes)
		}

		// The last restore finishes with the straight run's result.
		for restored.StepWindow() {
		}
		got, err := restored.Finish()
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, label+" resumed", straight, got)
	}
}

// TestDeltaChainParity checks restore parity of pipelined bases on the
// uniform market with income tax at P in {1,2,4,8}. (The name dates from
// when a checkpoint chain held delta links; a chain is now one base.)
func TestDeltaChainParity(t *testing.T) {
	checkpointParity(t, "market/tax", []int{1, 2, 4, 8}, func(p int) shard.Config {
		return marketConfig(t, p, taxPipeline(t))
	})
}

// TestDeltaChainParityStreaming checks restore parity of pipelined bases
// on the streaming workload with income tax.
func TestDeltaChainParityStreaming(t *testing.T) {
	checkpointParity(t, "streaming/tax", []int{4}, func(p int) shard.Config {
		return streamingConfig(t, p, taxPipeline(t))
	})
}

// TestRoutingDeltaChainParity checks restore parity of pipelined bases on
// the availability-routed market with income tax: every base carries the
// weight mirror, EWMA scores and Fenwick slab.
func TestRoutingDeltaChainParity(t *testing.T) {
	checkpointParity(t, "market/availability+tax", []int{4}, func(p int) shard.Config {
		cfg := marketConfig(t, p, taxPipeline(t))
		cfg.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability}
		return cfg
	})
}

// TestResumedCheckpointsMatchStraight checks that a resumed run keeps
// checkpointing the bytes the uninterrupted run would. A restore
// re-estimates the calendar's day width, so the resumed run's batches —
// and the dispatch read-ahead's view of upcoming actors — differ from the
// straight run's; no state may change at a point that depends on them.
// The availability-routed run guards the Fenwick slab and its built/stale
// flags (no read-ahead may rebuild a tree); the uniform market and the
// taxed streaming run guard every other field of the base. The configs are
// TestBaseFormatPinned's, on the same 3,000-peer graph, compared every 4
// windows for 40 windows after the restore.
func TestResumedCheckpointsMatchStraight(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T, p int) shard.Config
	}{
		{"market/uniform", func(t *testing.T, p int) shard.Config {
			return marketConfig(t, p, nil)
		}},
		{"market/availability+churn", func(t *testing.T, p int) shard.Config {
			return routedMarket(t, p, shard.RoutingConfig{Mode: shard.RouteAvailability})
		}},
		{"streaming/tax+redistribute+inject", func(t *testing.T, p int) shard.Config {
			return streamingConfig(t, p, taxPipeline(t))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 3} {
				cfg := func() shard.Config {
					cfg := c.cfg(t, p)
					cfg.Graph = testGraph(t, 3000, 45)
					return cfg
				}
				straight, err := shard.NewSim(cfg())
				if err != nil {
					t.Fatal(err)
				}
				if err := straight.Start(); err != nil {
					t.Fatal(err)
				}
				stepWindows(t, straight, 20)
				resumed, err := shard.RestoreChain(cfg(), [][]byte{straight.Snapshot()})
				if err != nil {
					t.Fatal(err)
				}
				for w := 4; w <= 40; w += 4 {
					stepWindows(t, straight, 4)
					stepWindows(t, resumed, 4)
					if !bytes.Equal(straight.Snapshot(), resumed.Snapshot()) {
						t.Fatalf("P=%d: the resumed run's snapshot differs from the straight run's %d windows after the restore", p, w)
					}
				}
			}
		})
	}
}

// buildTestBase produces a pipelined market base at P=4 for the
// corruption and structural-fault sweeps.
func buildTestBase(t *testing.T) []byte {
	t.Helper()
	sim, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	stepWindows(t, sim, 30)
	checkpointSync(t, shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{}))
	return sink.chain[0]
}

// TestCheckpointRejectsCorruption sweeps every storage fault over a base —
// truncation, a flipped bit, a torn tail — plus the structural faults a
// store could produce (a duplicated base, a base followed by a stale delta
// link, a lone delta link, an empty chain). Every variant must be refused;
// none may silently mis-restore.
func TestCheckpointRejectsCorruption(t *testing.T) {
	base := buildTestBase(t)
	if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), [][]byte{base}); err != nil {
		t.Fatalf("pristine base refused: %v", err)
	}

	fault.CorruptChain([][]byte{base}, func(desc string, corrupted [][]byte) {
		if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), corrupted); err == nil {
			t.Errorf("%s: corrupted base restored without error", desc)
		}
	})

	structural := map[string][][]byte{
		"base duplicated":      {base, base},
		"base and stale delta": {base, asDelta(base)},
		"lone delta":           {asDelta(base)},
		"empty chain":          nil,
	}
	for name, chain := range structural {
		if _, err := shard.RestoreChain(marketConfig(t, 4, taxPipeline(t)), chain); err == nil {
			t.Errorf("%s: chain restored without error", name)
		}
	}
}

// TestCheckpointerBaseMatchesSnapshot pins the parallel encode path to
// the serial one: a checkpointer base written at a barrier is
// byte-identical to Sim.Snapshot of an identical run at the same barrier
// — the k-fragment seal is a pure decomposition of the serial encoding.
func TestCheckpointerBaseMatchesSnapshot(t *testing.T) {
	serial, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Start(); err != nil {
		t.Fatal(err)
	}
	piped, err := shard.NewSim(marketConfig(t, 4, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := piped.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, serial, 40)
	stepWindows(t, piped, 40)

	want := serial.Snapshot()
	sink := &memChain{}
	c := shard.NewCheckpointer(piped.Engine(), sink, shard.CheckpointOptions{})
	checkpointSync(t, c)
	if sink.writes != 1 {
		t.Fatalf("expected one base write, got %d", sink.writes)
	}
	if !bytes.Equal(sink.chain[0], want) {
		t.Fatalf("parallel-encoded base (%d bytes) differs from serial snapshot (%d bytes)",
			len(sink.chain[0]), len(want))
	}
}

// TestChainStoreIgnoresStaleDeltas checkpoints a run into a file-backed
// ChainStore, leaves a PATH.d001 delta file beside the base as an older
// build would have, and restores from the store: Load reads only the
// base, and the restored run finishes with the uninterrupted run's
// fingerprint.
func TestChainStoreIgnoresStaleDeltas(t *testing.T) {
	cfg := func() shard.Config { return marketConfig(t, 2, taxPipeline(t)) }
	straight, err := shard.Run(cfg())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := shard.NewSim(cfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	st := &snapshot.ChainStore{Path: filepath.Join(t.TempDir(), "run.snap")}
	ck := shard.NewCheckpointer(sim.Engine(), st, shard.CheckpointOptions{})
	stepWindows(t, sim, 20)
	checkpointSync(t, ck)
	stepWindows(t, sim, 2)
	stale := sim.Snapshot() // a later state, re-headed as a delta of the base
	if err := os.WriteFile(st.Path+".d001", asDelta(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	chain, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 {
		t.Fatalf("Load returned %d links, want the base alone", len(chain))
	}
	restored, err := shard.RestoreChain(cfg(), chain)
	if err != nil {
		t.Fatal(err)
	}
	for restored.StepWindow() {
	}
	got, err := restored.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "restored beside a stale delta", straight, got)
}

// TestCheckpointSteadyStateAllocs pins the checkpoint path's recycling
// contract, as TestBarrierSteadyStateZeroAlloc pins the barrier's: once a
// run has written a couple of bases, a checkpoint allocates O(1) bytes
// (the write hand-off, about 400), not O(base). The run is a 2-lane taxed
// streaming run whose metric series and scheduler slabs grow between
// checkpoints, so every base is larger than the last, by about 0.5% at
// two windows apart; the windows run outside the measurement. A recycled
// buffer that outgrows its capacity still allocates once, about 1.25
// times its size, so a growth landing among the measured checkpoints
// would exceed the budget; geometric growth makes that rare, and at this
// pace none does.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	const (
		warm     = 2  // bases written before the measurement
		measured = 16 // checkpoints measured
		budget   = 64 << 10
	)
	sim, err := shard.NewSim(streamingConfig(t, 2, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &lenSink{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
	stepWindows(t, sim, 10)
	var ms runtime.MemStats
	var alloc uint64
	firstSize, prev := 0, 0
	for k := 0; k < warm+measured; k++ {
		stepWindows(t, sim, 2)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		checkpointSync(t, c)
		runtime.ReadMemStats(&ms)
		if sink.writes != k+1 || sink.last <= prev {
			t.Fatalf("checkpoint %d: %d writes, base %d bytes after %d: the run must write growing bases",
				k, sink.writes, sink.last, prev)
		}
		prev = sink.last
		if k == warm {
			firstSize = sink.last
		}
		if k >= warm {
			alloc += ms.TotalAlloc - before
		}
	}
	if alloc >= budget {
		t.Errorf("%d steady-state checkpoints of %d-%d byte bases allocated %d bytes, want < %d",
			measured, firstSize, sink.last, alloc, budget)
	}
}
