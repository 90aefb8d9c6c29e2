package shard_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

// fuzzRuns are FuzzRestoreChain's seed runs, all with churn: a 2-lane
// availability-routed market (Fenwick slab, weight mirror and EWMA state
// in every segment), a 2-lane streaming run, a 2-lane streaming run with
// income tax and redistribution (the policy stream and the stages' state
// in the head section), and a 2-lane market under adaptive tax and
// demurrage (the controller's rate in the head section). New runs go at
// the end, so a corpus entry's pick keeps naming the same base.
var fuzzRuns = []func(testing.TB) shard.Config{
	func(t testing.TB) shard.Config {
		return routedMarket(t, 2, shard.RoutingConfig{Mode: shard.RouteAvailability})
	},
	func(t testing.TB) shard.Config { return streamingConfig(t, 2, nil) },
	func(t testing.TB) shard.Config {
		tax, err := policy.NewIncomeTax(0.2, 5)
		if err != nil {
			t.Fatal(err)
		}
		return streamingConfig(t, 2, []policy.Policy{tax, policy.NewRedistribute()})
	},
	func(t testing.TB) shard.Config { return marketConfig(t, 2, adaptivePipeline(t)) },
}

// adaptivePipeline is an adaptive income tax followed by demurrage.
func adaptivePipeline(t testing.TB) []policy.Policy {
	at, err := policy.NewAdaptiveTax(policy.AdaptiveTaxConfig{TargetGini: 0.3, Gain: 0.5, InitialRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := policy.NewDemurrage(0.05, 20)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{at, d}
}

// fuzzBases checkpoints run k through a Checkpointer at two barriers and
// returns both bases.
func fuzzBases(t testing.TB, k int) [][]byte {
	sim, err := shard.NewSim(fuzzRuns[k](t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
	var bases [][]byte
	for _, n := range []int{10, 4} {
		stepWindows(t, sim, n)
		checkpointSync(t, c)
		bases = append(bases, sink.chain[0])
	}
	return bases
}

// maxFuzzDraws bounds the RNG stream positions a fuzz input may carry.
// Restore replays a recorded position draw by draw, about 5 ns each, so
// a mutated count near 2^64 would spend the run replaying instead of
// fuzzing. The seed bases sit far below it.
const maxFuzzDraws = 1 << 20

// replaysLong reports whether payload may carry an rng section whose
// stream position exceeds maxFuzzDraws. Every rng section is its tag
// followed by the seed and the draw count, so checking what follows every
// occurrence of the tag covers any section the decoder reaches.
func replaysLong(payload []byte) bool {
	tag := []byte("\x03rng")
	for i := 0; ; {
		j := bytes.Index(payload[i:], tag)
		if j < 0 {
			return false
		}
		i += j + len(tag)
		if i+16 <= len(payload) && binary.LittleEndian.Uint64(payload[i+8:]) > maxFuzzDraws {
			return true
		}
	}
}

// FuzzRestoreChain drives the restore boundary with mutated bases. The
// input replaces the payload of a seed base — taken at one of two
// barriers of one of the fuzzRuns — and the base is re-sealed so the
// checksum passes and mutations reach the decoders. Whatever the bytes,
// RestoreChain must not panic, and a base it accepts must step to the
// horizon and finish without error.
func FuzzRestoreChain(f *testing.F) {
	const header = 12 // magic + format version
	var bases [][]byte
	for k := range fuzzRuns {
		bases = append(bases, fuzzBases(f, k)...)
	}
	// withPayload returns base i's header followed by payload, re-sealed.
	withPayload := func(i int, payload []byte) [][]byte {
		b := snapshot.Seal(nil, [][]byte{append(bases[i][:header:header], payload...)})
		return [][]byte{b}
	}
	for i, base := range bases {
		payload := base[header : len(base)-8]
		if replaysLong(payload) {
			f.Fatalf("seed base %d carries a stream past %d draws", i, maxFuzzDraws)
		}
		if _, err := shard.RestoreChain(fuzzRuns[i/2](f), withPayload(i, payload)); err != nil {
			f.Fatalf("seed base %d refused: %v", i, err)
		}
		f.Add(uint8(i), payload)
	}
	f.Fuzz(func(t *testing.T, pick uint8, payload []byte) {
		if replaysLong(payload) {
			t.Skip("stream position past maxFuzzDraws")
		}
		i := int(pick) % len(bases)
		s, err := shard.RestoreChain(fuzzRuns[i/2](t), withPayload(i, payload))
		if err != nil {
			return
		}
		for s.StepWindow() {
		}
		if _, err := s.Finish(); err != nil {
			t.Fatalf("restored base failed to finish: %v", err)
		}
	})
}

// TestRestoreRefusesUnreachableAdaptiveRate rewrites the adaptive tax's
// rate in a checksum-valid base to values its clamps never produce. Each
// base must be refused: restored, a NaN rate or one above 1 panicked the
// first taxed income's Binomial draw.
func TestRestoreRefusesUnreachableAdaptiveRate(t *testing.T) {
	const header = 12 // magic + format version
	k := len(fuzzRuns) - 1
	base := fuzzBases(t, k)[0]
	tag := []byte("\x0cadaptive-tax")
	at := bytes.Index(base, tag)
	if at < 0 {
		t.Fatal("base carries no adaptive-tax section")
	}
	at += len(tag)
	for _, rate := range []float64{math.NaN(), 2, -0.5} {
		payload := slices.Clone(base[header : len(base)-8])
		binary.LittleEndian.PutUint64(payload[at-header:], math.Float64bits(rate))
		sealed := snapshot.Seal(nil, [][]byte{append(base[:header:header], payload...)})
		if _, err := shard.RestoreChain(fuzzRuns[k](t), [][]byte{sealed}); err == nil {
			t.Errorf("base with adaptive rate %v restored", rate)
		}
	}
}

// TestRestoreChainRefusesLoneDelta pins the error for handing RestoreChain
// the delta links an older build wrote, alone or after their base: a
// checkpoint is one base, and the error says so.
func TestRestoreChainRefusesLoneDelta(t *testing.T) {
	base := fuzzBases(t, 0)[0]
	for name, chain := range map[string][][]byte{
		"lone delta":     {asDelta(base)},
		"base and delta": {base, asDelta(base)},
	} {
		_, err := shard.RestoreChain(fuzzRuns[0](t), chain)
		if err == nil || !strings.Contains(err.Error(), "a checkpoint is one base") {
			t.Errorf("%s: got %v, want an error saying a checkpoint is one base", name, err)
		}
	}
}

// TestRestoreVetsPendingHandles crafts checkpoints of a 2-lane churn
// market whose pending workload-event handles disagree with the queued
// events, and requires RestoreChain to refuse each with an error naming the
// fault. The untouched capture restores and finishes like the
// uninterrupted run.
func TestRestoreVetsPendingHandles(t *testing.T) {
	const windows = 20
	// capture snapshots the run after some windows, once craft has edited
	// the engine; craft gets two live peers of lane 0 holding a handle and
	// one offline peer.
	capture := func(craft func(e *shard.Engine, a, b, off int32)) []byte {
		sim, err := shard.NewSim(marketConfig(t, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		stepWindows(t, sim, windows)
		e := sim.Engine()
		var live []int32
		off := int32(-1)
		for g := int32(0); g < int32(e.N()/2); g++ {
			switch {
			case !e.Alive(g):
				if off < 0 {
					off = g
				}
			case *e.PendingHandle(g) != 0:
				live = append(live, g)
			}
		}
		if len(live) < 2 || off < 0 {
			t.Fatalf("lane 0 has %d live peers with a handle and offline peer %d", len(live), off)
		}
		craft(e, live[0], live[1], off)
		return sim.Snapshot()
	}
	want, err := shard.Run(marketConfig(t, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	s, err := shard.RestoreChain(marketConfig(t, 2, nil), [][]byte{capture(func(*shard.Engine, int32, int32, int32) {})})
	if err != nil {
		t.Fatalf("untouched capture refused: %v", err)
	}
	for s.StepWindow() {
	}
	if got, err := s.Finish(); err != nil || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("untouched capture resumed to %v (err %v), want the uninterrupted run", got, err)
	}

	cases := []struct {
		name  string
		craft func(e *shard.Engine, a, b, off int32)
		want  func(a, b, off int32) string
	}{
		{"live-handle-names-another-peers-event",
			func(e *shard.Engine, a, b, _ int32) { *e.PendingHandle(a) = *e.PendingHandle(b) },
			func(a, _, _ int32) string { return fmt.Sprintf("peer %d's queued workload event", a) }},
		{"queued-event-named-by-no-handle",
			func(e *shard.Engine, a, _, _ int32) { *e.PendingHandle(a) = 0 },
			func(a, _, _ int32) string { return fmt.Sprintf("peer %d's queued workload event", a) }},
		{"offline-peer-holds-a-handle",
			func(e *shard.Engine, a, _, off int32) { *e.PendingHandle(off) = *e.PendingHandle(a) },
			func(_, _, off int32) string { return fmt.Sprintf("offline peer %d holds pending handle", off) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var a, b, off int32
			data := capture(func(e *shard.Engine, a0, b0, off0 int32) {
				a, b, off = a0, b0, off0
				c.craft(e, a, b, off)
			})
			_, err := shard.RestoreChain(marketConfig(t, 2, nil), [][]byte{data})
			if err == nil {
				t.Fatal("crafted handles restored")
			}
			if w := c.want(a, b, off); !strings.Contains(err.Error(), w) {
				t.Fatalf("got %q, want an error containing %q", err, w)
			}
		})
	}
}

// TestRestoreRefusesParentCheckpoint feeds a checkpoint written by the
// kernel before each peer's pending handle and the workload counters
// moved into the lane sections (a 2-lane churn market over 64 peers,
// snapshotted after 40 windows; format v3, handles and counters in a
// trailing workload section) to the current decoder under the same
// configuration: it must be refused, never decoded into the new layout.
func TestRestoreRefusesParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/shard-v3.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shard.Config{
		Graph: testGraph(t, 64, 5), Shards: 2, Horizon: 10, Seed: 3, InitialWealth: 10,
		Churn: shard.ChurnConfig{MeanLifespan: 8, MeanDowntime: 2}, Workload: w,
	}
	if _, err := shard.RestoreChain(cfg, [][]byte{data}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("parent checkpoint: got %v, want a format-version refusal", err)
	}
}

// TestRestoreLongPolicyStream advances a taxed 2-lane market's policy
// stream, which IncomeTax draws from on every merged income event, past
// 2^28 draws, a position a few minutes of a large taxed run reach. The
// base must restore byte-identically and finish with the result of the
// run it was taken from: restore must accept every position a run can
// record.
func TestRestoreLongPolicyStream(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 2^28 draws")
	}
	sim, err := shard.NewSim(marketConfig(t, 2, taxPipeline(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, sim, 40)
	rng := sim.Engine().PolicyRNG()
	for i := 0; i <= 1<<28; i++ {
		rng.Int63()
	}
	snap := sim.Snapshot()
	restored, err := shard.RestoreChain(marketConfig(t, 2, taxPipeline(t)), [][]byte{snap})
	if err != nil {
		t.Fatalf("base 2^28+1 draws into the policy stream refused: %v", err)
	}
	if !bytes.Equal(restored.Snapshot(), snap) {
		t.Fatal("restored state re-encodes differently")
	}
	for sim.StepWindow() {
	}
	want, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for restored.StepWindow() {
	}
	got, err := restored.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "restored past 2^28 policy draws", want, got)
}
