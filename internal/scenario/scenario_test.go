package scenario

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// fingerprint reduces an outcome to a hash of every number it carries, so
// two runs can be compared byte-for-byte.
func fingerprint(t *testing.T, o *Outcome) string {
	t.Helper()
	h := sha256.New()
	series := func(name string, times, values []float64) {
		for i := range times {
			fmt.Fprintf(h, "%s %v %v\n", name, times[i], values[i])
		}
	}
	intMap64 := func(name string, m map[int]int64) {
		ids := make([]int, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(h, "%s %d %d\n", name, id, m[id])
		}
	}
	floatMap := func(name string, m map[int]float64) {
		ids := make([]int, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(h, "%s %d %v\n", name, id, m[id])
		}
	}
	switch {
	case o.Market != nil:
		r := o.Market
		fmt.Fprintf(h, "spend=%d joins=%d dep=%d taxc=%d taxr=%d inj=%d fg=%v\n",
			r.SpendEvents, r.Joins, r.Departures, r.TaxCollected, r.TaxRedistributed, r.Injected, r.FinalGini)
		series("gini", r.Gini.Times, r.Gini.Values)
		series("pop", r.Population.Times, r.Population.Values)
		series("supply", r.Supply.Times, r.Supply.Values)
		for _, sn := range r.Snapshots {
			fmt.Fprintf(h, "snap %v %v\n", sn.Time, sn.Sorted)
		}
		intMap64("wealth", r.FinalWealth)
		floatMap("rate", r.SpendingRate)
	case o.Streaming != nil:
		r := o.Streaming
		fmt.Fprintf(h, "traded=%d seeded=%d stalls=%d dep=%d gs=%v gw=%v\n",
			r.ChunksTraded, r.ChunksSeeded, r.Stalls, r.Departures, r.GiniSpending, r.GiniWealth)
		series("wg", r.WealthGini.Times, r.WealthGini.Values)
		intMap64("wealth", r.FinalWealth)
		floatMap("rate", r.SpendingRate)
		floatMap("down", r.DownloadRate)
		floatMap("cont", r.Continuity)
	default:
		t.Fatal("outcome carries no result")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPresetsRegistered pins the four regimes this layer exists for.
func TestPresetsRegistered(t *testing.T) {
	for _, name := range []string{
		"flash-crowd", "free-rider-mix", "diurnal-churn", "seeder-drain",
		"adaptive-tax", "demurrage", "newcomer-subsidy", "taxed-streaming",
	} {
		if _, err := Get(name); err != nil {
			t.Errorf("preset %q missing: %v", name, err)
		}
	}
	all := All()
	if len(all) < 8 {
		t.Fatalf("registry holds %d scenarios, want >= 8", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
}

// TestGoldenDeterminism runs every registered preset twice at quick scale
// and demands byte-identical outcomes — the scenario layer's contract that
// a regime is fully determined by its declaration and seed.
func TestGoldenDeterminism(t *testing.T) {
	for _, sc := range All() {
		t.Run(sc.Name, func(t *testing.T) {
			a, err := Run(sc, ScaleQuick, 1, Resume{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sc, ScaleQuick, 1, Resume{})
			if err != nil {
				t.Fatal(err)
			}
			fa, fb := fingerprint(t, a), fingerprint(t, b)
			if fa != fb {
				t.Fatalf("same-seed outcomes differ: %s vs %s", fa, fb)
			}
			if a.Events() == 0 {
				t.Fatal("scenario executed no events")
			}
		})
	}
}

// TestFlashCrowdSpikesPopulation checks the regime does what it declares:
// the population during the spike window clearly exceeds the pre-spike
// level, and relaxes afterwards.
func TestFlashCrowdSpikesPopulation(t *testing.T) {
	sc, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	pop := o.Market.Population
	if pop.Len() < 10 {
		t.Fatalf("population series too short: %d", pop.Len())
	}
	spikeEnd := (sc.Churn.SpikeStart + sc.Churn.SpikeLen) * o.Horizon
	var before, peak, after float64
	for i := range pop.Times {
		v := pop.Values[i]
		switch {
		case pop.Times[i] < sc.Churn.SpikeStart*o.Horizon:
			if v > before {
				before = v
			}
		case pop.Times[i] < spikeEnd+0.05*o.Horizon:
			if v > peak {
				peak = v
			}
		default:
			after = v // last sample wins
		}
	}
	if peak < 1.3*before {
		t.Errorf("flash crowd did not spike: before-max %v, spike-max %v", before, peak)
	}
	if after >= peak {
		t.Errorf("population did not relax after the spike: peak %v, final %v", peak, after)
	}
	if o.Market.Joins == 0 || o.Market.Departures == 0 {
		t.Errorf("expected churn activity, got %d joins / %d departures", o.Market.Joins, o.Market.Departures)
	}
}

// TestFreeRiderMixConcentratesIncome compares the free-rider preset to the
// same market without free-riders: with a quarter of the peers cut out of
// the serving side, wealth must end more concentrated.
func TestFreeRiderMixConcentratesIncome(t *testing.T) {
	sc, err := Get("free-rider-mix")
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	sc.Market.FreeRiderFrac = 0
	without, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	if with.Market.FinalGini <= without.Market.FinalGini {
		t.Errorf("free riders should raise the wealth Gini: %v (with) vs %v (without)",
			with.Market.FinalGini, without.Market.FinalGini)
	}
}

// TestDiurnalChurnOscillates verifies the arrival rate actually modulates:
// population samples in the high half-period outnumber those in the low
// half-period.
func TestDiurnalChurnOscillates(t *testing.T) {
	sc, err := Get("diurnal-churn")
	if err != nil {
		t.Fatal(err)
	}
	o, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Market.Joins == 0 || o.Market.Departures == 0 {
		t.Fatalf("expected churn activity, got %d joins / %d departures", o.Market.Joins, o.Market.Departures)
	}
	pop := o.Market.Population
	if pop.Len() < 10 {
		t.Fatalf("population series too short: %d", pop.Len())
	}
	var lo, hi float64
	lo = pop.Values[0]
	hi = lo
	for _, v := range pop.Values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 1.15*lo {
		t.Errorf("diurnal population swing too small: min %v max %v", lo, hi)
	}
}

// TestSeederDrainDegradesContinuity pins the streaming teardown path: the
// scheduled departures all execute, and the post-drain swarm stalls more
// than the same swarm whose seeders stay.
func TestSeederDrainDegradesContinuity(t *testing.T) {
	sc, err := Get("seeder-drain")
	if err != nil {
		t.Fatal(err)
	}
	drained, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.StreamingConfig(ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	if drained.Streaming.Departures != uint64(len(cfg.Departures)) {
		t.Errorf("departures executed = %d, scheduled %d", drained.Streaming.Departures, len(cfg.Departures))
	}
	if len(cfg.Departures) == 0 {
		t.Fatal("seeder-drain compiled with no departures")
	}
	sc.Streaming.DrainStart, sc.Streaming.DrainEnd = 0, 0 // seeders stay
	kept, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	if drained.Streaming.Stalls <= kept.Streaming.Stalls {
		t.Errorf("draining the seeders should cost playback: %d stalls drained vs %d kept",
			drained.Streaming.Stalls, kept.Streaming.Stalls)
	}
}

// TestReportRenders smoke-tests the text report of both workload flavors.
func TestReportRenders(t *testing.T) {
	for _, name := range []string{"flash-crowd", "seeder-drain"} {
		o, err := RunNamed(name, ScaleQuick)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := o.Report(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if !strings.Contains(out, name) || !strings.Contains(out, "quick") {
			t.Errorf("report for %s missing header fields:\n%s", name, out)
		}
	}
}

// TestRunNamedUnknown exercises the registry error path.
func TestRunNamedUnknown(t *testing.T) {
	if _, err := RunNamed("no-such-regime", ScaleQuick); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
}

// TestScalesCompile compiles every preset at every scale without running
// the large instance (that is the benchmark's job).
func TestScalesCompile(t *testing.T) {
	for _, sc := range All() {
		for _, scale := range []Scale{ScaleQuick, ScaleFull, ScaleLarge} {
			var err error
			if sc.Workload == WorkloadMarket {
				_, err = sc.MarketConfig(scale)
			} else {
				_, err = sc.StreamingConfig(scale)
			}
			if err != nil {
				t.Errorf("%s at %s: %v", sc.Name, scale, err)
			}
		}
	}
}

// TestXLargeDims pins the million-peer scale's compiled dimensions without
// paying for a 1M-node topology: population and the default horizons.
func TestXLargeDims(t *testing.T) {
	if ScaleXLarge.String() != "xlarge" {
		t.Errorf("ScaleXLarge.String() = %q", ScaleXLarge.String())
	}
	market, err := Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	d, err := market.dims(ScaleXLarge)
	if err != nil {
		t.Fatal(err)
	}
	if d.n != 1_000_000 {
		t.Errorf("market xlarge population = %d, want 1_000_000", d.n)
	}
	if d.horizon != 8 {
		t.Errorf("market xlarge horizon = %v, want 8", d.horizon)
	}
	stream, err := Get("seeder-drain")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := stream.dims(ScaleXLarge)
	if err != nil {
		t.Fatal(err)
	}
	if ds.n != 1_000_000 || ds.horizon != 16 {
		t.Errorf("streaming xlarge dims = n %d horizon %v, want 1_000_000 / 16", ds.n, ds.horizon)
	}
}

// TestRunRefusesNonFinite pins that Run refuses NaN and infinite horizons,
// horizon overrides and churn shapes with ErrBadScenario on both engines:
// they used to panic sizing a series, run forever, or compile to a
// negative streaming horizon.
func TestRunRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, preset string
		scale        Scale
		set          func(*Scenario)
	}{
		{"horizon-nan", "demurrage", ScaleQuick, func(sc *Scenario) { sc.Horizon = nan }},
		{"horizon-inf", "demurrage", ScaleQuick, func(sc *Scenario) { sc.Horizon = inf }},
		{"horizon-neg-inf", "demurrage", ScaleQuick, func(sc *Scenario) { sc.Horizon = -inf }},
		{"horizon-nan", "taxed-streaming", ScaleQuick, func(sc *Scenario) { sc.Horizon = nan }},
		{"horizon-inf", "taxed-streaming", ScaleFull, func(sc *Scenario) { sc.Horizon = inf }},
		{"large-nan", "demurrage", ScaleLarge, func(sc *Scenario) { sc.LargeHorizon = nan }},
		{"large-inf", "taxed-streaming", ScaleLarge, func(sc *Scenario) { sc.LargeHorizon = inf }},
		{"xlarge-nan", "taxed-streaming", ScaleXLarge, func(sc *Scenario) { sc.XLargeHorizon = nan }},
		{"xlarge-inf", "demurrage", ScaleXLarge, func(sc *Scenario) { sc.XLargeHorizon = inf }},
		{"spike-inf", "flash-crowd", ScaleQuick, func(sc *Scenario) { sc.Churn.SpikeFactor = inf }},
		{"spike-len-nan", "flash-crowd", ScaleQuick, func(sc *Scenario) { sc.Churn.SpikeLen = nan }},
		{"period-nan", "diurnal-churn", ScaleQuick, func(sc *Scenario) { sc.Churn.Period = nan }},
		{"period-inf", "diurnal-churn", ScaleQuick, func(sc *Scenario) { sc.Churn.Period = inf }},
		{"amplitude-nan", "diurnal-churn", ScaleQuick, func(sc *Scenario) { sc.Churn.Amplitude = nan }},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%s/shards=%d", c.preset, c.name, shards), func(t *testing.T) {
				sc, err := Get(c.preset)
				if err != nil {
					t.Fatal(err)
				}
				c.set(&sc)
				if _, err := Run(sc, c.scale, shards, Resume{}); !errors.Is(err, ErrBadScenario) {
					t.Fatalf("err %v, want ErrBadScenario", err)
				}
			})
		}
	}
}

// TestStreamingRefusesHugeHorizon pins that a finite streaming horizon
// too large for the engine's int round count is refused by name, on both
// engines, instead of overflowing into a negative horizon (one engine) or
// a run that never ends (the other).
func TestStreamingRefusesHugeHorizon(t *testing.T) {
	sc, err := Get("taxed-streaming")
	if err != nil {
		t.Fatal(err)
	}
	sc.Horizon = 1e300
	_, serial := sc.StreamingConfig(ScaleFull)
	_, sharded := sc.ShardConfig(ScaleFull, 2)
	for name, err := range map[string]error{"StreamingConfig": serial, "ShardConfig": sharded} {
		if !errors.Is(err, ErrBadScenario) || !strings.Contains(err.Error(), "horizon 1e+300") {
			t.Errorf("%s: err %v, want ErrBadScenario naming horizon 1e+300", name, err)
		}
	}
}

// TestRegisterErrorPaths pins the registry's panic contract: empty names
// and duplicate registrations are programming errors caught at init time.
func TestRegisterErrorPaths(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register(Scenario{}) })
	mustPanic("duplicate", func() {
		Register(Scenario{Name: "flash-crowd"}) // already registered by init
	})
}

// TestGetUnknown exercises the lookup error path directly.
func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-regime"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Get(unknown) = %v, want ErrUnknown", err)
	}
	if _, err := RunNamed("no-such-regime", ScaleQuick); !errors.Is(err, ErrUnknown) {
		t.Fatalf("RunNamed(unknown) = %v, want ErrUnknown", err)
	}
}

// TestCreditPolicyValidation covers the declarative policy fields' error
// paths: unknown kinds, out-of-range parameters, and the epoch rules.
func TestCreditPolicyValidation(t *testing.T) {
	base := func() Scenario {
		sc, err := Get("adaptive-tax")
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	check := func(name string, mutate func(*Scenario)) {
		t.Helper()
		sc := base()
		mutate(&sc)
		if _, err := sc.MarketConfig(ScaleQuick); err == nil {
			t.Errorf("%s: invalid credit policy accepted", name)
		}
	}
	check("unknown kind", func(sc *Scenario) {
		sc.Credit.Policies = []PolicySpec{{Kind: PolicyKind(99)}}
	})
	check("bad tax rate", func(sc *Scenario) {
		sc.Credit.Policies = []PolicySpec{{Kind: PolicyTax, Rate: 1.5}}
		sc.Credit.PolicyEpoch = 0
	})
	check("bad demurrage threshold", func(sc *Scenario) {
		sc.Credit.Policies = []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.1, Threshold: -1}}
	})
	check("zero subsidy", func(sc *Scenario) {
		sc.Credit.Policies = []PolicySpec{{Kind: PolicySubsidy, Amount: 0}}
		sc.Credit.PolicyEpoch = 0
	})
	check("bad adaptive gain", func(sc *Scenario) {
		sc.Credit.Policies = []PolicySpec{{Kind: PolicyAdaptiveTax, TargetGini: 0.3, Gain: -1}}
	})
	check("epoch above 1", func(sc *Scenario) { sc.Credit.PolicyEpoch = 1.5 })
	check("epoch below the default window", func(sc *Scenario) { sc.Credit.PolicyEpoch = 0.005 })
	check("epoch-driven without epoch", func(sc *Scenario) { sc.Credit.PolicyEpoch = 0 })
	check("epoch without policies", func(sc *Scenario) {
		sc.Credit.Policies = nil // PolicyEpoch stays set
	})

	// The same declarative validation guards streaming scenarios.
	sc, err := Get("taxed-streaming")
	if err != nil {
		t.Fatal(err)
	}
	sc.Credit.Policies = []PolicySpec{{Kind: PolicyKind(99)}}
	if _, err := sc.StreamingConfig(ScaleQuick); err == nil {
		t.Error("streaming: unknown policy kind accepted")
	}
	sc, _ = Get("taxed-streaming")
	sc.Credit.Policies = []PolicySpec{{Kind: PolicyInject, Amount: 1}}
	sc.Credit.PolicyEpoch = 0.25 // conflicts with InjectPeriod 0.1
	if _, err := sc.StreamingConfig(ScaleQuick); err == nil {
		t.Error("streaming: conflicting epoch clocks accepted")
	}
}

// TestAdaptiveTaxPresetCountersCondensation runs the preset against its
// policy-free twin: the controller must collect, redistribute everything
// it can, and end less condensed.
func TestAdaptiveTaxPresetCountersCondensation(t *testing.T) {
	sc, err := Get("adaptive-tax")
	if err != nil {
		t.Fatal(err)
	}
	managed, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	free := sc
	free.Credit.Policies = nil
	free.Credit.PolicyEpoch = 0
	unmanaged, err := Run(free, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	r := managed.Market
	if r.TaxCollected == 0 || r.TaxRedistributed == 0 {
		t.Fatalf("no controller activity: collected %d redistributed %d", r.TaxCollected, r.TaxRedistributed)
	}
	if r.FinalGini >= unmanaged.Market.FinalGini {
		t.Errorf("adaptive tax did not reduce condensation: %v vs %v (free)",
			r.FinalGini, unmanaged.Market.FinalGini)
	}
}

// TestDemurragePresetRecirculates pins the decay preset's behavior.
func TestDemurragePresetRecirculates(t *testing.T) {
	sc, err := Get("demurrage")
	if err != nil {
		t.Fatal(err)
	}
	managed, err := Run(sc, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	free := sc
	free.Credit.Policies = nil
	free.Credit.PolicyEpoch = 0
	unmanaged, err := Run(free, ScaleQuick, 1, Resume{})
	if err != nil {
		t.Fatal(err)
	}
	r := managed.Market
	if r.TaxCollected == 0 {
		t.Fatal("demurrage decayed nothing")
	}
	if r.Injected != 0 {
		t.Errorf("demurrage minted %d credits", r.Injected)
	}
	if r.FinalGini >= unmanaged.Market.FinalGini {
		t.Errorf("demurrage did not reduce condensation: %v vs %v (free)",
			r.FinalGini, unmanaged.Market.FinalGini)
	}
}

// TestNewcomerSubsidyPresetFundsArrivals pins the churn + pot-funded
// subsidy composition: arrivals happen, the tax feeds the pot, grants and
// redistribution flow, and nothing is minted.
func TestNewcomerSubsidyPresetFundsArrivals(t *testing.T) {
	o, err := RunNamed("newcomer-subsidy", ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	r := o.Market
	if r.Joins == 0 {
		t.Fatal("no churn arrivals; preset vacuous")
	}
	if r.TaxCollected == 0 || r.TaxRedistributed == 0 {
		t.Errorf("no pot flow: collected %d redistributed %d", r.TaxCollected, r.TaxRedistributed)
	}
	if r.Injected != 0 {
		t.Errorf("pot-funded preset minted %d credits", r.Injected)
	}
	if r.TaxRedistributed > r.TaxCollected {
		t.Errorf("redistributed %d exceeds collected %d", r.TaxRedistributed, r.TaxCollected)
	}
}

// TestTaxedStreamingPreset pins the protocol-level countermeasures: the
// legacy Credit knobs compile to engine stages on the streaming workload
// and the counters land in the streaming Result.
func TestTaxedStreamingPreset(t *testing.T) {
	o, err := RunNamed("taxed-streaming", ScaleQuick)
	if err != nil {
		t.Fatal(err)
	}
	r := o.Streaming
	if r.TaxCollected == 0 || r.TaxRedistributed == 0 {
		t.Errorf("no taxation activity: collected %d redistributed %d", r.TaxCollected, r.TaxRedistributed)
	}
	if r.Injected == 0 {
		t.Error("injection minted nothing")
	}
	if r.TaxRedistributed > r.TaxCollected {
		t.Errorf("redistributed %d exceeds collected %d", r.TaxRedistributed, r.TaxCollected)
	}
	if r.ChunksTraded == 0 {
		t.Error("swarm traded nothing")
	}
}
