package market

import (
	"bytes"
	"encoding/binary"
	"testing"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// fuzzRuns are FuzzRestoreChain's seed runs: a degree-routed churn market
// (degree-weight caches, dirty neighbourhoods, a churn-mutated overlay)
// and a closed availability-routed market (inventory vectors).
var fuzzRuns = []func(testing.TB) Config{
	fixtureDegreeChurn,
	func(t testing.TB) Config {
		g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 60, Alpha: 2.5, MeanDegree: 6}, xrand.New(621))
		if err != nil {
			t.Fatal(err)
		}
		return Config{Graph: g, InitialWealth: 10, DefaultMu: 1, Horizon: 120, Routing: RouteAvailability, Seed: 622}
	},
}

// fuzzSteps bounds the events a restored fuzz input may run: enough to
// touch every peer's spend path, few enough to keep executions fast.
const fuzzSteps = 2000

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

// FuzzRestoreChain drives the single-threaded market's restore boundary
// with mutated bases. The input replaces the payload of a seed base —
// captured after 300 or 900 events of one of two runs — and the base is
// re-sealed so the checksum passes and mutations reach the decoders.
// Whatever the bytes, RestoreChain must not panic, and a Sim it accepts
// must survive fuzzSteps events without panicking.
func FuzzRestoreChain(f *testing.F) {
	const header = 12 // magic + format version
	var bases [][]byte
	for k := range fuzzRuns {
		for _, at := range []int{300, 900} {
			m, err := NewSim(fuzzRuns[k](f))
			if err != nil {
				f.Fatal(err)
			}
			if err := m.Start(); err != nil {
				f.Fatal(err)
			}
			for i := 0; i < at && m.Step(); i++ {
			}
			bases = append(bases, m.Snapshot())
		}
	}
	// withPayload returns base i's header followed by payload, re-sealed.
	withPayload := func(i int, payload []byte) [][]byte {
		return [][]byte{snapshot.Seal(nil, [][]byte{append(bases[i][:header:header], payload...)})}
	}
	for i, base := range bases {
		payload := base[header : len(base)-8]
		if replaysLong(payload) {
			f.Fatalf("seed base %d carries a stream past %d draws", i, maxFuzzDraws)
		}
		if _, err := RestoreChain(fuzzRuns[i/2](f), withPayload(i, payload)); err != nil {
			f.Fatalf("seed base %d refused: %v", i, err)
		}
		f.Add(uint8(i), payload)
	}
	f.Fuzz(func(t *testing.T, pick uint8, payload []byte) {
		if replaysLong(payload) {
			t.Skip("stream position past maxFuzzDraws")
		}
		i := int(pick) % len(bases)
		m, err := RestoreChain(fuzzRuns[i/2](t), withPayload(i, payload))
		if err != nil {
			return
		}
		for n := 0; n < fuzzSteps && m.Step(); n++ {
		}
	})
}
