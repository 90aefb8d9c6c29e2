package shard_test

import (
	"strings"
	"testing"

	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
)

// fuzzRuns are FuzzRestoreChain's seed runs: a 2-lane
// availability-routed market (Fenwick slab, weight mirror and EWMA state
// in every segment) and a 2-lane streaming run, both with churn.
var fuzzRuns = []func(testing.TB) shard.Config{
	func(t testing.TB) shard.Config {
		return routedMarket(t, 2, shard.RoutingConfig{Mode: shard.RouteAvailability})
	},
	func(t testing.TB) shard.Config { return streamingConfig(t, 2, nil) },
}

// fuzzChain checkpoints run k into a base plus two deltas.
func fuzzChain(t testing.TB, k int) [][]byte {
	sim, err := shard.NewSim(fuzzRuns[k](t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sink := &memChain{}
	c := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{
		Delta: true, RebaseEvery: 64, MaxDeltaFraction: 1e9,
	})
	stepWindows(t, sim, 10)
	checkpointSync(t, c)
	for i := 0; i < 2; i++ {
		stepWindows(t, sim, 2)
		checkpointSync(t, c)
	}
	return sink.chain
}

// FuzzRestoreChain drives the restore boundary with mutated links. The
// input replaces the payload of a seed chain's last link — the lone base,
// or the last delta — and the link is re-sealed so the checksum passes
// and mutations reach the decoders. Whatever the bytes, RestoreChain must
// not panic, and a chain it accepts must step to the horizon and finish
// without error.
func FuzzRestoreChain(f *testing.F) {
	const header = 12 // magic + format version
	var chains [][][]byte
	for k := range fuzzRuns {
		chain := fuzzChain(f, k)
		chains = append(chains, chain[:1], chain)
	}
	// withPayload copies chain i with its last link's payload replaced and
	// the link re-sealed.
	withPayload := func(i int, payload []byte) [][]byte {
		chain := append([][]byte(nil), chains[i]...)
		last := chain[len(chain)-1]
		chain[len(chain)-1], _ = snapshot.Seal(nil, [][]byte{append(last[:header:header], payload...)})
		return chain
	}
	for i, chain := range chains {
		last := chain[len(chain)-1]
		payload := last[header : len(last)-8]
		if _, err := shard.RestoreChain(fuzzRuns[i/2](f), withPayload(i, payload)); err != nil {
			f.Fatalf("seed chain %d refused: %v", i, err)
		}
		f.Add(uint8(i), payload)
	}
	f.Fuzz(func(t *testing.T, pick uint8, payload []byte) {
		i := int(pick) % len(chains)
		s, err := shard.RestoreChain(fuzzRuns[i/2](t), withPayload(i, payload))
		if err != nil {
			return
		}
		for s.StepWindow() {
		}
		if _, err := s.Finish(); err != nil {
			t.Fatalf("restored chain failed to finish: %v", err)
		}
	})
}

// TestRestoreSimRefusesLoneDelta pins the error for handing RestoreSim a
// delta link: it restores only on top of its chain, and the error says
// where to go instead.
func TestRestoreSimRefusesLoneDelta(t *testing.T) {
	chain := fuzzChain(t, 0)
	_, err := shard.RestoreSim(fuzzRuns[0](t), chain[len(chain)-1])
	if err == nil || !strings.Contains(err.Error(), "RestoreChain") {
		t.Fatalf("lone delta: got %v, want an error naming RestoreChain", err)
	}
}
