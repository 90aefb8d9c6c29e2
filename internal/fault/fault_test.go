package fault_test

import (
	"math"
	"strings"
	"testing"

	"creditp2p/internal/des"
	"creditp2p/internal/fault"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
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

func demurrage(t testing.TB) []policy.Policy {
	t.Helper()
	d, err := policy.NewDemurrage(0.05, 30)
	if err != nil {
		t.Fatal(err)
	}
	return []policy.Policy{d, policy.NewRedistribute()}
}

func marketWorkload(t testing.TB) shard.Workload {
	t.Helper()
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func streamingWorkload(t testing.TB) shard.Workload {
	t.Helper()
	w, err := streaming.NewShard(streaming.ShardConfig{StreamRate: 2, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var churn = shard.ChurnConfig{MeanLifespan: 60, MeanDowntime: 15}

// marketCombos spans the market mechanism space on the sharded kernel:
// churn, taxation, epoch policies and availability routing. Each combo
// builds its unwrapped config at P lanes. The churn and availability-routing
// combo keeps its historical name.
func marketCombos(t testing.TB) map[string]func(p int) shard.Config {
	return map[string]func(p int) shard.Config{
		"baseline": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 60, 6, 1), Shards: p, InitialWealth: 20, Horizon: 200, Seed: 2,
				Workload: marketWorkload(t)}
		},
		"tax+churn": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 60, 6, 3), Shards: p, InitialWealth: 20, Horizon: 200, Seed: 4,
				Policies: taxPolicy(t), PolicyEpoch: 10, Churn: churn, Workload: marketWorkload(t)}
		},
		"calendar+incgini+fast": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 80, 6, 5), Shards: p, InitialWealth: 15, Horizon: 200, Seed: 6,
				Churn: churn, Routing: shard.RoutingConfig{Mode: shard.RouteAvailability}, Workload: marketWorkload(t)}
		},
		"policies": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 60, 6, 7), Shards: p, InitialWealth: 20, Horizon: 200, Seed: 8,
				Policies: demurrage(t), PolicyEpoch: 20, Workload: marketWorkload(t)}
		},
	}
}

func streamingCombos(t testing.TB) map[string]func(p int) shard.Config {
	return map[string]func(p int) shard.Config{
		"baseline": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 40, 6, 11), Shards: p, InitialWealth: 12, Horizon: 90, Seed: 12,
				Workload: streamingWorkload(t)}
		},
		"drain+policies": func(p int) shard.Config {
			return shard.Config{Graph: graph(t, 40, 6, 13), Shards: p, InitialWealth: 12, Horizon: 90, Seed: 14,
				Churn: churn, Policies: demurrage(t), PolicyEpoch: 25, Workload: streamingWorkload(t)}
		},
	}
}

var plans = map[string]fault.Plan{
	"transfer-fail": {Seed: 101, FailProb: 0.2},
	"event-drop":    {Seed: 102, DropProb: 0.1},
	"both":          {Seed: 103, FailProb: 0.1, DropProb: 0.05},
}

// faulted returns cfg with its workload wrapped under plan.
func faulted(t testing.TB, cfg shard.Config, plan fault.Plan) shard.Config {
	t.Helper()
	w, err := plan.Wrap(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	return cfg
}

// runFaulted runs cfg under plan through fault.Run, auditing every
// auditEvery windows, and returns the report and the finished result.
func runFaulted(t testing.TB, cfg shard.Config, plan fault.Plan, auditEvery int) (*fault.Report, *shard.Result) {
	t.Helper()
	s, err := shard.NewSim(faulted(t, cfg, plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rep := fault.Run(s, auditEvery)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rep, res
}

// requireClean fails unless the report is clean, audited at least once,
// and the plan injected faults.
func requireClean(t *testing.T, rep *fault.Report, res *shard.Result) {
	t.Helper()
	if err := rep.Err(); err != nil {
		t.Fatalf("diagnostics under injection:\n%v", err)
	}
	if rep.Windows == 0 || rep.Audits == 0 || res.Events == 0 {
		t.Fatalf("run did not exercise anything: %d windows, %d audits, %d events", rep.Windows, rep.Audits, res.Events)
	}
	if res.Counters["faults"] == 0 {
		t.Fatalf("plan injected nothing across %d events", res.Events)
	}
}

// TestMarketMatrixNoViolations drives every market mechanism combo under
// every fault plan on two lanes, auditing at every fifth barrier: the run
// must complete with zero panics and every audit clean — injected faults
// degrade the economy, they never corrupt it.
func TestMarketMatrixNoViolations(t *testing.T) {
	for cname, mk := range marketCombos(t) {
		for pname, plan := range plans {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				rep, res := runFaulted(t, mk(2), plan, 5)
				requireClean(t, rep, res)
			})
		}
	}
}

// TestStreamingMatrixNoViolations is the streaming-workload counterpart.
func TestStreamingMatrixNoViolations(t *testing.T) {
	for cname, mk := range streamingCombos(t) {
		for pname, plan := range plans {
			t.Run(cname+"/"+pname, func(t *testing.T) {
				rep, res := runFaulted(t, mk(2), plan, 5)
				requireClean(t, rep, res)
			})
		}
	}
}

// TestInjectionDeterminism runs one faulted combo at one, two and five
// lanes: the fingerprint, fault count included, must not move, or the
// fault draw depends on something other than the plan, the peer and the
// event time. A base taken mid-run restores and finishes to the same
// fingerprint, so the plan carries no state a checkpoint would miss.
func TestInjectionDeterminism(t *testing.T) {
	mk := marketCombos(t)["tax+churn"]
	plan := plans["both"]
	rep, want := runFaulted(t, mk(1), plan, 1)
	requireClean(t, rep, want)
	for _, p := range []int{2, 5} {
		rep, got := runFaulted(t, mk(p), plan, 1)
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() || got.Counters["faults"] != want.Counters["faults"] {
			t.Fatalf("P=%d: fingerprint %016x with %d faults, P=1 gave %016x with %d",
				p, got.Fingerprint(), got.Counters["faults"], want.Fingerprint(), want.Counters["faults"])
		}
	}

	s, err := shard.NewSim(faulted(t, mk(2), plan))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && s.StepWindow(); i++ {
	}
	r, err := shard.RestoreChain(faulted(t, mk(2), plan), [][]byte{s.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Run(r, 1).Err(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed faulted run: fingerprint %016x, uninterrupted %016x", got.Fingerprint(), want.Fingerprint())
	}
	if _, err := shard.RestoreChain(faulted(t, mk(2), plans["transfer-fail"]), [][]byte{s.Snapshot()}); err == nil {
		t.Fatal("base restored under a different plan")
	}
}

// panicky is a market workload whose peers 29 and 59, one on each lane of
// a two-lane run over 60 peers, panic on their first event after t=5.
type panicky struct{ shard.Workload }

func (p panicky) OnEvent(ln *shard.Lane, ev des.Event) {
	if ev.Actor%30 == 29 && ev.Time > 5 {
		panic("simulated workload bug")
	}
	p.Workload.OnEvent(ln, ev)
}

// TestRunRecoversPanic panics inside a workload on both lanes of a
// two-lane run, goroutines no recover on the coordinator reaches: the plan
// recovers each panic, Run reports both, and the run still reaches the
// horizon with its audits clean.
func TestRunRecoversPanic(t *testing.T) {
	cfg := marketCombos(t)["baseline"](2)
	cfg.Workload = panicky{cfg.Workload}
	rep, _ := runFaulted(t, cfg, fault.Plan{}, 1)
	if len(rep.Diagnostics) != 2 {
		t.Fatalf("want a panic from each lane, got %v", rep.Err())
	}
	err := rep.Err()
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "simulated workload bug") {
		t.Fatalf("panic diagnostic missing from %v", err)
	}
	if rep.Windows != shard.DefaultWindows || rep.Audits != rep.Windows+1 {
		t.Fatalf("run stopped early: %d windows, %d audits", rep.Windows, rep.Audits)
	}
}

// tooManyCounters declares every counter a lane holds.
type tooManyCounters struct{ shard.Workload }

func (tooManyCounters) CounterNames() []string { return make([]string, shard.MaxCounters) }

func TestPlanValidation(t *testing.T) {
	w := marketWorkload(t)
	for _, p := range []fault.Plan{
		{FailProb: -0.1},
		{FailProb: 1},
		{FailProb: math.NaN()},
		{DropProb: -1},
		{DropProb: 1.5},
		{DropProb: math.NaN()},
		{FailProb: 0.5, DropProb: 0.5},
	} {
		if _, err := p.Wrap(w); err == nil {
			t.Fatalf("plan %+v accepted", p)
		}
	}
	for name, w := range map[string]shard.Workload{"nil workload": nil, "no counter left": tooManyCounters{w}} {
		if _, err := (fault.Plan{}).Wrap(w); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := (fault.Plan{FailProb: 0.5, DropProb: 0.25}).Wrap(w); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionAlwaysDetected checkpoints a mid-flight sharded run, then
// applies every corruption helper at a sweep of offsets: each corrupted
// base must be rejected with an error (never a panic, never a silent
// load).
func TestCorruptionAlwaysDetected(t *testing.T) {
	mk := func() shard.Config {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			t.Fatal(err)
		}
		return shard.Config{Graph: graph(t, 60, 6, 1), Shards: 2, Horizon: 50, Seed: 2, InitialWealth: 20, Workload: w,
			Churn: shard.ChurnConfig{MeanLifespan: 30, MeanDowntime: 10}}
	}
	s, err := shard.NewSim(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && s.StepWindow(); i++ {
	}
	data := s.Snapshot()
	if _, err := shard.RestoreChain(mk(), [][]byte{data}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	check := func(kind string, corrupted []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: restore panicked: %v", kind, r)
			}
		}()
		if _, err := shard.RestoreChain(mk(), [][]byte{corrupted}); err == nil {
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
