package market

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// resumeCfg builds one all-mechanisms configuration (taxation, injection,
// churn, snapshots). Fresh per call: the graph mutates under churn and the
// policy stages accumulate counters.
func resumeCfg(t *testing.T) Config {
	t.Helper()
	g, err := topology.RandomRegular(60, 6, xrand.New(511))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:         g,
		InitialWealth: 20,
		DefaultMu:     1,
		Horizon:       400,
		SampleEvery:   20,
		SnapshotTimes: []float64{100, 300},
		Policies:      taxStages(t, 0.25, 12, injection(t, 1)),
		PolicyEpoch:   60,
		Churn:         &ChurnConfig{ArrivalRate: 0.4, MeanLifespan: 150, AttachDegree: 4, FastAttach: true},
		Seed:          512,
	}
}

// countEvents runs a config to completion and returns the delivered-event
// count alongside the Result.
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

// crashAt runs a fresh sim for `at` events and returns its snapshot.
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

// TestResumeParityAtArbitraryIndices crashes the all-mechanisms run at a
// sweep of event indices — immediately after Start, mid-run, one event
// before the end — restores each snapshot into a fresh simulation, and
// demands the resumed Result byte-identical to the uninterrupted run's.
func TestResumeParityAtArbitraryIndices(t *testing.T) {
	events, want := countEvents(t, resumeCfg(t))
	for _, at := range []int{0, 1, events / 4, events / 2, 3 * events / 4, events - 1} {
		data := crashAt(t, resumeCfg(t), at)
		m, err := RestoreSim(resumeCfg(t), data)
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
// the exact bytes: restoring must not perturb any serialized state.
func TestSnapshotIdempotence(t *testing.T) {
	events, _ := countEvents(t, resumeCfg(t))
	data := crashAt(t, resumeCfg(t), events/2)
	m, err := RestoreSim(resumeCfg(t), data)
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
	data := crashAt(t, resumeCfg(t), 100)
	cases := map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"horizon": func(c *Config) { c.Horizon *= 2 },
		"routing": func(c *Config) { c.Routing = RouteDegreeWeighted },
		"wealth":  func(c *Config) { c.InitialWealth++ },
		"no-tax":  func(c *Config) { c.Policies = c.Policies[2:] },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := resumeCfg(t)
			mutate(&cfg)
			if _, err := RestoreSim(cfg, data); err == nil {
				t.Fatal("restore into an altered configuration was accepted")
			} else if !strings.Contains(err.Error(), "digest") && !strings.Contains(err.Error(), "external accounts") {
				t.Fatalf("want a digest-guard error, got: %v", err)
			}
		})
	}
}

// TestRestoreRefusesTaxBridgeCheckpoint feeds a checkpoint written by the
// market's retired Config.Tax bridge (a 30-peer RandomRegular(4) overlay,
// seed 511, taxed at 0.25 above 12, snapshotted after 500 events) to the
// stage pipeline that replaced it, and to the untaxed market: both
// restores must fail with an error, never panic or misread the stream.
func TestRestoreRefusesTaxBridgeCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/tax-bridge.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pols []policy.Policy
	}{
		{"stages", taxStages(t, 0.25, 12)},
		{"untaxed", nil},
		{"tax-only", taxStages(t, 0.25, 12)[:1]},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := topology.RandomRegular(30, 4, xrand.New(511))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Graph: g, InitialWealth: 20, DefaultMu: 1, Horizon: 200, Policies: c.pols, Seed: 512}
			if _, err := RestoreSim(cfg, data); err == nil {
				t.Fatal("a tax-bridge checkpoint restored into the stage pipeline")
			} else {
				t.Log(err)
			}
		})
	}
}
