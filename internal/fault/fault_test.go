package fault_test

import (
	"strings"
	"testing"

	"creditp2p/internal/fault"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/sim"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

func graph(t testing.TB, n, d int, seed int64) *topology.Graph {
	t.Helper()
	g, err := topology.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// taxPolicy is the Sec. VI-C tax: collection, then whole-round
// redistribution of the pot.
func taxPolicy(t testing.TB) []policy.Policy {
	t.Helper()
	it, err := policy.NewIncomeTax(0.25, 15)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{it, policy.NewRedistribute()}
}

func demurrage(t testing.TB) *policy.Demurrage {
	t.Helper()
	d, err := policy.NewDemurrage(0.05, 30)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// marketCombos spans the market mechanism space: churn, taxation and the
// policy engine. The calendar+incgini+fast combo keeps its historical
// name.
func marketCombos(t testing.TB) map[string]func() market.Config {
	churn := &market.ChurnConfig{ArrivalRate: 0.5, MeanLifespan: 120, AttachDegree: 4, FastAttach: true}
	return map[string]func() market.Config{
		"baseline": func() market.Config {
			return market.Config{Graph: graph(t, 60, 6, 1), InitialWealth: 20, DefaultMu: 1, Horizon: 200, Seed: 2}
		},
		"tax+churn": func() market.Config {
			return market.Config{Graph: graph(t, 60, 6, 3), InitialWealth: 20, DefaultMu: 1, Horizon: 200, Policies: taxPolicy(t), Churn: churn, Seed: 4}
		},
		"calendar+incgini+fast": func() market.Config {
			return market.Config{Graph: graph(t, 80, 6, 5), InitialWealth: 15, DefaultMu: 1, Horizon: 200,
				Churn: churn, Seed: 6}
		},
		"policies": func() market.Config {
			return market.Config{Graph: graph(t, 60, 6, 7), InitialWealth: 20, DefaultMu: 1, Horizon: 200,
				Policies: []policy.Policy{demurrage(t), policy.NewRedistribute()}, PolicyEpoch: 20, Seed: 8}
		},
	}
}

func streamingCombos(t testing.TB) map[string]func() streaming.Config {
	return map[string]func() streaming.Config{
		"baseline": func() streaming.Config {
			return streaming.Config{Graph: graph(t, 40, 6, 11), StreamRate: 2, DelaySeconds: 6, UploadCap: 2,
				DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 90, Seed: 12}
		},
		"drain+policies": func() streaming.Config {
			return streaming.Config{Graph: graph(t, 40, 6, 13), StreamRate: 2, DelaySeconds: 6, UploadCap: 2,
				DownloadCap: 3, SourceSeeds: 3, InitialWealth: 12, HorizonSeconds: 90,
				Departures: []streaming.Departure{{ID: 1, AtSecond: 40}},
				Policies:   []policy.Policy{demurrage(t), policy.NewRedistribute()}, PolicyEpoch: 25, Seed: 14}
		},
	}
}

var plans = map[string]fault.Plan{
	"transfer-fail": {Seed: 101, TransferFailProb: 0.2},
	"event-drop":    {Seed: 102, EventDropProb: 0.1},
	"both":          {Seed: 103, TransferFailProb: 0.1, EventDropProb: 0.05},
}

// TestMarketMatrixNoViolations drives every market mechanism combo under
// every fault plan: the run must complete with zero panics and every
// periodic invariant audit clean — injected faults degrade the economy,
// they never corrupt it.
func TestMarketMatrixNoViolations(t *testing.T) {
	for cname, mk := range marketCombos(t) {
		for pname, plan := range plans {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				in, err := fault.NewInjector(plan)
				if err != nil {
					t.Fatal(err)
				}
				m, err := market.NewSim(mk())
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
				rep := fault.Run(m, in, 50)
				if err := rep.Err(); err != nil {
					t.Fatalf("diagnostics under injection:\n%v", err)
				}
				if rep.Events == 0 || rep.Audits == 0 {
					t.Fatalf("run did not exercise anything: %d events, %d audits", rep.Events, rep.Audits)
				}
				if in.FailedTransfers+in.DroppedEvents == 0 {
					t.Fatalf("injector hooks never fired across %d events", rep.Events)
				}
			})
		}
	}
}

// TestStreamingMatrixNoViolations is the streaming-workload counterpart.
func TestStreamingMatrixNoViolations(t *testing.T) {
	for cname, mk := range streamingCombos(t) {
		for pname, plan := range plans {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				in, err := fault.NewInjector(plan)
				if err != nil {
					t.Fatal(err)
				}
				m, err := streaming.NewSim(mk())
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Start(); err != nil {
					t.Fatal(err)
				}
				rep := fault.Run(m, in, 50)
				if err := rep.Err(); err != nil {
					t.Fatalf("diagnostics under injection:\n%v", err)
				}
				if rep.Events == 0 || rep.Audits == 0 {
					t.Fatalf("run did not exercise anything: %d events, %d audits", rep.Events, rep.Audits)
				}
				// Streaming trades on kernel-owned ticks, which are never
				// offered to DropEvent — only transfer failures can fire.
				if plan.TransferFailProb > 0 && in.FailedTransfers == 0 {
					t.Fatalf("no transfers failed across %d events", rep.Events)
				}
			})
		}
	}
}

// TestInjectionDeterminism runs the same combo twice under the same plan:
// identical fault counts and event counts, or the injection stream is not
// reproducible.
func TestInjectionDeterminism(t *testing.T) {
	mk := marketCombos(t)["tax+churn"]
	run := func() (uint64, uint64, uint64) {
		in, err := fault.NewInjector(plans["both"])
		if err != nil {
			t.Fatal(err)
		}
		m, err := market.NewSim(mk())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		rep := fault.Run(m, in, 100)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return rep.Events, in.FailedTransfers, in.DroppedEvents
	}
	e1, f1, d1 := run()
	e2, f2, d2 := run()
	if e1 != e2 || f1 != f2 || d1 != d2 {
		t.Fatalf("non-deterministic injection: run1 (%d events, %d fails, %d drops) vs run2 (%d, %d, %d)",
			e1, f1, d1, e2, f2, d2)
	}
	if f1 == 0 || d1 == 0 {
		t.Fatalf("plan injected nothing: %d fails, %d drops", f1, d1)
	}
}

// panicStepper panics mid-run; fault.Run must convert that into a
// diagnostic, not let it escape.
type panicStepper struct {
	s     *market.Sim
	steps int
}

func (p *panicStepper) Step() bool {
	p.steps++
	if p.steps == 10 {
		panic("simulated workload bug")
	}
	return p.s.Step()
}

func (p *panicStepper) Kernel() *sim.Kernel { return p.s.Kernel() }

func TestRunRecoversPanic(t *testing.T) {
	m, err := market.NewSim(marketCombos(t)["baseline"]())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	rep := fault.Run(&panicStepper{s: m}, nil, 0)
	err = rep.Err()
	if err == nil {
		t.Fatal("panic was not reported")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "simulated workload bug") {
		t.Fatalf("panic diagnostic missing from %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	for _, p := range []fault.Plan{
		{TransferFailProb: -0.1},
		{TransferFailProb: 1},
		{EventDropProb: -1},
		{EventDropProb: 1.5},
	} {
		if _, err := fault.NewInjector(p); err == nil {
			t.Fatalf("plan %+v accepted", p)
		}
	}
}

// TestCorruptionAlwaysDetected snapshots a mid-flight run, then applies
// every corruption helper at a sweep of offsets: each corrupted snapshot
// must be rejected with an error (never a panic, never a silent load).
func TestCorruptionAlwaysDetected(t *testing.T) {
	mk := marketCombos(t)["baseline"]
	m, err := market.NewSim(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && m.Step(); i++ {
	}
	data := m.Snapshot()
	if _, err := market.RestoreChain(mk(), [][]byte{data}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	check := func(kind string, corrupted []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: restore panicked: %v", kind, r)
			}
		}()
		if _, err := market.RestoreChain(mk(), [][]byte{corrupted}); err == nil {
			t.Fatalf("%s: corrupted snapshot accepted", kind)
		}
	}

	n := len(data)
	for _, at := range []int{0, 1, 11, n / 3, n / 2, n - 12} {
		check("truncate", fault.Truncate(data, at))
		// Tears past n-4 only zero the trailer slot's padding (the CRC32
		// occupies the low half of the 8-byte slot), which leaves the file
		// byte-identical — not corruption, so not swept here.
		check("tear", fault.Tear(data, at))
	}
	check("truncate", fault.Truncate(data, n-1))
	// Bit flips across header, payload body, and trailer.
	for i := 0; i < 64; i++ {
		bit := (i*n/64)*8 + i%8
		check("bitflip", fault.BitFlip(data, bit))
	}

	// The same corruption is caught at the format layer, with a
	// descriptive error.
	if _, err := snapshot.Open(fault.BitFlip(data, 8*(n/2))); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("format layer missed a bit flip: %v", err)
	}
}
