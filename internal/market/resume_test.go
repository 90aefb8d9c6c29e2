package market

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"creditp2p/internal/policy"
	"creditp2p/internal/sim"
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
// the exact bytes: restoring must not perturb any serialized state.
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
			if _, err := RestoreChain(cfg, [][]byte{data}); err == nil {
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
			if _, err := RestoreChain(cfg, [][]byte{data}); err == nil {
				t.Fatal("a tax-bridge checkpoint restored into the stage pipeline")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestRestoreRefusesParentCheckpoint feeds a checkpoint written before the
// single-threaded engines' captures became chain bases (a 30-peer
// RandomRegular(4) overlay, seed 511, snapshotted after 500 events; format
// v4 with the kernel section first and no link header) to the current
// decoder under the same configuration: it must be refused, never decoded
// into the new layout.
func TestRestoreRefusesParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/market-v4-bare.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.RandomRegular(30, 4, xrand.New(511))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, InitialWealth: 20, DefaultMu: 1, Horizon: 200, Seed: 512}
	if _, err := RestoreChain(cfg, [][]byte{data}); err == nil || !strings.Contains(err.Error(), `want "chain"`) {
		t.Fatalf("parent checkpoint: got %v, want a refusal for the missing chain-link header", err)
	}
}

// TestRestoreVetsPeerState crafts checkpoints of a closed 60-peer market
// whose cached neighbourhoods or pending spend handles break the engine's
// invariants, and requires RestoreChain to refuse each with an error
// naming the fault — never to accept the file and panic mid-run. The
// untouched capture restores and finishes like the uninterrupted run.
func TestRestoreVetsPeerState(t *testing.T) {
	mk := func() Config {
		g, err := topology.RandomRegular(60, 6, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		return Config{Graph: g, InitialWealth: 3, DefaultMu: 1, Horizon: 200, Seed: 78}
	}
	// capture runs 400 events, lets craft edit the workload state, and
	// snapshots; craft gets two busy peers (a spend queued) and an idle
	// one (bankrupt, its handle stale).
	capture := func(craft func(s *simulation, a, b, idle int32)) []byte {
		m, err := NewSim(mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400 && m.Step(); i++ {
		}
		s := m.s
		var busy []int32
		idle := int32(-1)
		for px := range s.ws {
			if s.ws[px].flags&pfIdle != 0 {
				idle = int32(px)
			} else {
				busy = append(busy, int32(px))
			}
		}
		if len(busy) < 2 || idle < 0 {
			t.Fatalf("%d busy peers and idle peer %d", len(busy), idle)
		}
		craft(s, busy[0], busy[1], idle)
		return m.Snapshot()
	}
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	m, err := RestoreChain(mk(), [][]byte{capture(func(*simulation, int32, int32, int32) {})})
	if err != nil {
		t.Fatalf("untouched capture refused: %v", err)
	}
	m.Run()
	got, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, want, got)

	cases := []struct {
		name, want string
		craft      func(s *simulation, a, b, idle int32)
	}{
		{"neighbour-outside-peer-table", "neighbour slot 1048576",
			func(s *simulation, a, _, _ int32) { s.ws[a].nbrs[0] = 1 << 20 }},
		{"handle-names-another-peers-event", "is not named by its pending handle",
			func(s *simulation, a, b, _ int32) { s.ws[a].pending = s.ws[b].pending }},
		{"busy-peer-marked-idle", "or the peer is idle",
			func(s *simulation, a, _, _ int32) { s.ws[a].flags |= pfIdle }},
		{"idle-peer-holds-a-live-handle", "pending handles name queued events",
			func(s *simulation, a, _, idle int32) { s.ws[idle].pending = s.ws[a].pending }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := RestoreChain(mk(), [][]byte{capture(c.craft)})
			if err == nil {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("crafted checkpoint restored, and the resumed run panicked: %v", p)
					}
				}()
				m.Run()
				t.Fatal("crafted checkpoint restored")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %q, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestRestoreVetsKernelEvents crafts checkpoints whose pending set holds a
// kernel-owned event this configuration never arms, or one addressed to a
// peer, and requires RestoreChain to refuse each: dispatch trusts these
// events, so a snapshot index outside SnapshotTimes or a policy epoch
// without a pipeline used to restore and then panic the resumed run.
func TestRestoreVetsKernelEvents(t *testing.T) {
	mk := func() Config {
		g, err := topology.RandomRegular(60, 6, xrand.New(91))
		if err != nil {
			t.Fatal(err)
		}
		return Config{Graph: g, InitialWealth: 3, DefaultMu: 1, Horizon: 200, Seed: 92,
			SnapshotTimes: []float64{150}}
	}
	// capture runs 400 events, queues one crafted kernel event one time
	// unit ahead, and snapshots.
	capture := func(kind uint16, actor int32, payload int64) []byte {
		m, err := NewSim(mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400 && m.Step(); i++ {
		}
		if kind != 0 {
			k := m.s.k
			if _, err := k.Sched.ScheduleAt(k.Sched.Now()+1, kind, actor, payload); err != nil {
				t.Fatal(err)
			}
		}
		return m.Snapshot()
	}
	if _, err := RestoreChain(mk(), [][]byte{capture(0, 0, 0)}); err != nil {
		t.Fatalf("untouched capture refused: %v", err)
	}
	cases := []struct {
		name, want string
		kind       uint16
		actor      int32
		payload    int64
	}{
		{"snapshot-index-outside-config", "arms no such event", sim.KindSnapshot, -1, 5},
		{"negative-snapshot-index", "arms no such event", sim.KindSnapshot, -1, -1},
		{"policy-epoch-without-pipeline", "arms no such event", sim.KindPolicy, -1, 0},
		{"departure-without-churn", "arms no such event", sim.KindDepart, 3, 0},
		{"unassigned-kernel-kind", "arms no such event", sim.KindUser - 1, -1, 0},
		{"sample-addressed-to-a-peer", "queued for actor 7, want -1", sim.KindSample, 7, 0},
		{"snapshot-addressed-to-a-peer", "queued for actor 2, want -1", sim.KindSnapshot, 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := RestoreChain(mk(), [][]byte{capture(c.kind, c.actor, c.payload)})
			if err == nil {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("crafted checkpoint restored, and the resumed run panicked: %v", p)
					}
				}()
				m.Run()
				t.Fatal("crafted checkpoint restored")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %q, want an error containing %q", err, c.want)
			}
		})
	}
}
