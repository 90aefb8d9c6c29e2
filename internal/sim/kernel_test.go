package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"creditp2p/internal/des"
	"creditp2p/internal/stats"
	"creditp2p/internal/topology"
)

// tickWorkload records delivered ticks.
type tickWorkload struct {
	fuzzWorkload
	ticks []int64
}

func (w *tickWorkload) OnEvent(ev des.Event) {
	if ev.Kind == KindTick {
		w.ticks = append(w.ticks, ev.Payload)
	}
}

func ring(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for id := 0; id < n; id++ {
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n; id++ {
		if err := g.AddEdge(id, (id+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestTicksCoverHorizon pins the tick contract round-based workloads rely
// on: ticks fire at 0, TickEvery, ... strictly below the horizon, with
// consecutive indices in the payload.
func TestTicksCoverHorizon(t *testing.T) {
	w := &tickWorkload{}
	k, err := NewKernel(Config{InitialWealth: 1, Horizon: 10, TickEvery: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(w.ticks) != 10 {
		t.Fatalf("ticks = %d, want 10", len(w.ticks))
	}
	for i, p := range w.ticks {
		if p != int64(i) {
			t.Fatalf("tick %d carried payload %d", i, p)
		}
	}
}

// TestNewKernelBoundsInitialWealth pins the refusal of an endowment above
// stats.MaxCreditStep, which would grow the balance histogram to
// terabytes and kill the process out of memory instead of failing.
func TestNewKernelBoundsInitialWealth(t *testing.T) {
	for _, w := range []int64{stats.MaxCreditStep + 1, 1 << 40} {
		if _, err := NewKernel(Config{InitialWealth: w, Horizon: 10}, &fuzzWorkload{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("initial wealth %d: err %v, want ErrBadConfig", w, err)
		}
	}
}

// TestSnapshotTimeValidated pins Start's range check.
func TestSnapshotTimeValidated(t *testing.T) {
	k, err := NewKernel(Config{InitialWealth: 1, Horizon: 10, SnapshotTimes: []float64{11}}, &fuzzWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Start(); err == nil {
		t.Fatal("snapshot beyond the horizon accepted")
	}
}

// TestMinPopulationFloor: an imperative departure below the floor is
// refused so a drain can never empty the economy.
func TestMinPopulationFloor(t *testing.T) {
	k, err := NewKernel(Config{InitialWealth: 5, Horizon: 10, MinPopulation: 2}, &fuzzWorkload{})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if _, err := k.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	if !k.Depart(0) {
		t.Fatal("departure above the floor refused")
	}
	if k.Depart(1) {
		t.Fatal("departure at the floor accepted")
	}
	if k.Peers.Live() != 2 {
		t.Fatalf("live = %d, want 2", k.Peers.Live())
	}
}

// TestJoinUnwindOnVeto: a workload that vetoes OnJoin leaves no trace — no
// peer, no account, no supply drift, conservation intact.
type vetoWorkload struct {
	fuzzWorkload
	veto bool
}

func (w *vetoWorkload) OnJoin(int32) error {
	if w.veto {
		return ErrBadConfig
	}
	return nil
}

func TestJoinUnwindOnVeto(t *testing.T) {
	w := &vetoWorkload{}
	k, err := NewKernel(Config{InitialWealth: 9, Horizon: 10}, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Join(0); err != nil {
		t.Fatal(err)
	}
	w.veto = true
	if _, err := k.Join(1); err == nil {
		t.Fatal("vetoed join succeeded")
	}
	if k.Peers.Live() != 1 {
		t.Fatalf("live = %d after veto, want 1", k.Peers.Live())
	}
	if k.Ledger.Has(1) {
		t.Fatal("vetoed peer kept its account")
	}
	if err := k.Finish(); err != nil {
		t.Fatal(err)
	}
}

// bypassWorkload pays a system pot straight through the kernel's ledger
// on its one event, skipping the kernel's transfer methods and so the
// balance-histogram mirror.
type bypassWorkload struct {
	fuzzWorkload
	k        *Kernel
	from     int32
	pot      int32
	amount   int64
	bypassed bool
}

func (w *bypassWorkload) OnEvent(ev des.Event) {
	if ev.Kind != KindUser {
		return
	}
	if err := w.k.Ledger.TransferAt(w.k.Peers.At(w.from).Acct, w.pot, w.amount); err != nil {
		panic(err)
	}
	w.bypassed = true
}

// TestBypassedMirrorDetected: credits moved through k.Ledger directly leave
// the ledger conserved but the balance histogram stale, and both the
// mid-run Audit and Finish must report the histogram out of sync.
func TestBypassedMirrorDetected(t *testing.T) {
	w := &bypassWorkload{amount: 4}
	k, err := NewKernel(Config{InitialWealth: 9, Horizon: 10}, w)
	if err != nil {
		t.Fatal(err)
	}
	w.k = k
	if w.pot, err = k.OpenExternal(-1, 0); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if _, err := k.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Audit(); err != nil {
		t.Fatalf("audit before the bypass: %v", err)
	}
	if err := k.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Sched.Schedule(1, KindUser, w.from, 0); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !w.bypassed {
		t.Fatal("the bypassing event never fired")
	}
	if err := k.Ledger.CheckConservation(); err != nil {
		t.Fatalf("the bypass broke conservation, not just the mirror: %v", err)
	}
	for name, check := range map[string]func() error{"Audit": k.Audit, "Finish": k.Finish} {
		err := check()
		if err == nil || !strings.Contains(err.Error(), "out of sync") {
			t.Errorf("%s after a bypassed mirror = %v, want the out-of-sync error", name, err)
		}
	}
}

// TestChurnShapesDeterministic: the thinning paths (global envelope and
// piecewise envelope) are deterministic given the seed, and the piecewise
// path actually generates arrivals through a rate spike.
func TestChurnShapesDeterministic(t *testing.T) {
	run := func(envelope bool) (uint64, uint64) {
		rateAt := func(tm float64) float64 {
			if tm >= 20 && tm < 30 {
				return 4
			}
			return 1
		}
		ch := &Churn{
			ArrivalRate:  1,
			MeanLifespan: 25,
			AttachDegree: 2,
			RateAt:       rateAt,
			FastAttach:   true,
		}
		if envelope {
			ch.EnvelopeAt = func(tm float64) (float64, float64) {
				switch {
				case tm < 20:
					return 1, 20
				case tm < 30:
					return 4, 30
				default:
					return 1, math.Inf(1)
				}
			}
		} else {
			ch.MaxRate = 4
		}
		g := ring(t, 10)
		k, err := NewKernel(Config{
			Graph:         g,
			InitialWealth: 3,
			Horizon:       100,
			Seed:          17,
			Churn:         ch,
		}, &fuzzWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range g.Nodes() {
			if _, err := k.Join(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if err := k.Finish(); err != nil {
			t.Fatal(err)
		}
		return k.Joins(), k.Departures()
	}
	for _, envelope := range []bool{false, true} {
		j1, d1 := run(envelope)
		j2, d2 := run(envelope)
		if j1 != j2 || d1 != d2 {
			t.Fatalf("envelope=%v: same-seed churn differs: %d/%d vs %d/%d", envelope, j1, d1, j2, d2)
		}
		if j1 == 0 || d1 == 0 {
			t.Fatalf("envelope=%v: no churn activity (%d joins, %d departures)", envelope, j1, d1)
		}
	}
}

// TestZeroRateEnvelopeWindow: an envelope segment with rate 0 (an "off"
// window) must skip to the boundary instead of panicking in Exponential,
// and an unbounded off window shuts the arrival process down.
func TestZeroRateEnvelopeWindow(t *testing.T) {
	run := func(shutoff float64) uint64 {
		rateAt := func(tm float64) float64 {
			if tm < shutoff {
				return 2
			}
			return 0
		}
		g := ring(t, 6)
		k, err := NewKernel(Config{
			Graph:         g,
			InitialWealth: 3,
			Horizon:       50,
			Seed:          23,
			Churn: &Churn{
				ArrivalRate:  2,
				MeanLifespan: 30,
				AttachDegree: 2,
				RateAt:       rateAt,
				EnvelopeAt: func(tm float64) (float64, float64) {
					if tm < shutoff {
						return 2, shutoff
					}
					return 0, math.Inf(1)
				},
				FastAttach: true,
			},
		}, &fuzzWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range g.Nodes() {
			if _, err := k.Join(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		k.Run()
		if err := k.Finish(); err != nil {
			t.Fatal(err)
		}
		return k.Joins()
	}
	if joins := run(20); joins == 0 {
		t.Fatal("no arrivals before the shutoff window")
	}
	// Shut off from t=0: the process must simply never arrive.
	if joins := run(0); joins != 0 {
		t.Fatalf("%d arrivals through a zero-rate envelope", joins)
	}
}

// TestRNGSeedIsolation: two kernels with equal seeds draw equal streams.
func TestRNGSeedIsolation(t *testing.T) {
	mk := func() *Kernel {
		k, err := NewKernel(Config{InitialWealth: 1, Horizon: 1, Seed: 5}, &fuzzWorkload{})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a, b := mk(), mk()
	for i := 0; i < 32; i++ {
		if a.RNG.Int63() != b.RNG.Int63() {
			t.Fatal("same-seed kernels diverged")
		}
	}
}
