package streaming

import (
	"bytes"
	"strings"
	"testing"

	"creditp2p/internal/credit"
	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// resumeCfg builds a streaming configuration exercising heterogeneous
// caps, departures, Poisson chunk pricing and the policy engine. Fresh per
// call: pricing and policies hold mutable state.
func resumeCfg(t *testing.T) Config {
	t.Helper()
	g, err := topology.RandomRegular(40, 6, xrand.New(611))
	if err != nil {
		t.Fatal(err)
	}
	pricing, err := credit.NewPoissonPricing(1.5, 0, xrand.New(613))
	if err != nil {
		t.Fatal(err)
	}
	dem, err := policy.NewDemurrage(0.05, 30)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:          g,
		StreamRate:     2,
		DelaySeconds:   6,
		UploadCap:      2,
		DownloadCap:    3,
		SourceSeeds:    3,
		InitialWealth:  15,
		HorizonSeconds: 120,
		UploadCapOf:    map[int]int{1: 8, 2: 8},
		Departures:     []Departure{{ID: 1, AtSecond: 50}, {ID: 5, AtSecond: 80}},
		Pricing:        pricing,
		Policies:       []policy.Policy{dem, policy.NewRedistribute()},
		PolicyEpoch:    25,
		Seed:           612,
	}
}

func countEvents(t *testing.T, cfg Config) (int, *Result) {
	t.Helper()
	m, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for m.Step() {
		n++
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n, res
}

func crashAt(t *testing.T, cfg Config, at int) []byte {
	t.Helper()
	m, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < at && m.Step(); i++ {
	}
	return m.Snapshot()
}

// TestResumeParityAtArbitraryIndices crashes the streaming run at a sweep
// of event indices, restores each snapshot into a fresh simulation, and
// demands the resumed Result byte-identical to the uninterrupted run's.
func TestResumeParityAtArbitraryIndices(t *testing.T) {
	events, want := countEvents(t, resumeCfg(t))
	for _, at := range []int{0, 1, events / 4, events / 2, 3 * events / 4, events - 1} {
		data := crashAt(t, resumeCfg(t), at)
		m, err := RestoreChain(resumeCfg(t), [][]byte{data})
		if err != nil {
			t.Fatalf("restore at event %d: %v", at, err)
		}
		m.Run()
		got, err := m.Finish()
		if err != nil {
			t.Fatalf("finish after restore at event %d: %v", at, err)
		}
		identicalResults(t, want, got)
	}
}

// TestSnapshotIdempotence asserts snapshot → restore → snapshot reproduces
// the exact bytes.
func TestSnapshotIdempotence(t *testing.T) {
	events, _ := countEvents(t, resumeCfg(t))
	data := crashAt(t, resumeCfg(t), events/2)
	m, err := RestoreChain(resumeCfg(t), [][]byte{data})
	if err != nil {
		t.Fatal(err)
	}
	again := m.Snapshot()
	if !bytes.Equal(data, again) {
		t.Fatalf("snapshot not idempotent: %d vs %d bytes after restore", len(data), len(again))
	}
}

// TestRestoreRejectsAlteredConfig alters one configuration knob per case
// and demands the digest guard refuse the restore.
func TestRestoreRejectsAlteredConfig(t *testing.T) {
	data := crashAt(t, resumeCfg(t), 40)
	cases := map[string]func(*Config){
		"seed":        func(c *Config) { c.Seed++ },
		"stream-rate": func(c *Config) { c.StreamRate++ },
		"upload-cap":  func(c *Config) { c.UploadCap++ },
		"pricing": func(c *Config) {
			c.Pricing = credit.UniformPricing{Credits: 1}
		},
		"no-policies": func(c *Config) { c.Policies = nil; c.PolicyEpoch = 0 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := resumeCfg(t)
			mutate(&cfg)
			if _, err := RestoreChain(cfg, [][]byte{data}); err == nil {
				t.Fatal("restore into an altered configuration was accepted")
			} else if !strings.Contains(err.Error(), "digest") && !strings.Contains(err.Error(), "external accounts") {
				t.Fatalf("want a digest-guard error, got: %v", err)
			}
		})
	}
}

// TestRestoreVetsPeerState crafts checkpoints whose buyer order or
// empty-list bits break the swarm's invariants and requires RestoreChain
// to refuse each with an error naming the fault, rather than accept the
// file and index out of range at the next round.
func TestRestoreVetsPeerState(t *testing.T) {
	capture := func(craft func(s *swarm)) []byte {
		m, err := NewSim(resumeCfg(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30 && m.Step(); i++ {
		}
		craft(m.s)
		return m.Snapshot()
	}
	if _, err := RestoreChain(resumeCfg(t), [][]byte{capture(func(*swarm) {})}); err != nil {
		t.Fatalf("untouched capture refused: %v", err)
	}
	// buffered returns a live peer holding a non-empty buffer list.
	buffered := func(s *swarm) int32 {
		for i := range s.peers {
			if s.peers[i].alive && s.peers[i].listLen > 0 {
				return int32(i)
			}
		}
		t.Fatal("no peer holds a buffered chunk")
		return -1
	}
	cases := []struct {
		name, want string
		craft      func(s *swarm)
	}{
		{"order-outside-swarm", "buyer order entry 1048576", func(s *swarm) { s.order[0] = 1 << 20 }},
		{"order-repeats", "or repeats", func(s *swarm) { s.order[0] = s.order[1] }},
		{"empty-list-without-empty-bit", "empty bit disagrees", func(s *swarm) { s.peers[buffered(s)].listLen = 0 }},
		{"empty-bit-over-buffered-list", "empty bit disagrees", func(s *swarm) { bitSet(s.empty, buffered(s)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := RestoreChain(resumeCfg(t), [][]byte{capture(c.craft)})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
		})
	}
}
