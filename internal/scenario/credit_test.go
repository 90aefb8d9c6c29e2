package scenario

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
)

// creditTargets returns a small market and a small streaming scenario that
// share a horizon, so one Credit block compiles to the same absolute epoch
// period on every engine.
func creditTargets(c Credit) (mkt, str Scenario) {
	mkt = Scenario{
		Name:     "credit-market",
		Workload: WorkloadMarket,
		Topology: Topology{Kind: TopoRegular, N: 250, Degree: 4},
		Credit:   c,
		Market:   Market{DefaultMu: 1, Routing: market.RouteUniform},
		Horizon:  400,
		Seed:     11,
	}
	str = Scenario{
		Name:     "credit-streaming",
		Workload: WorkloadStreaming,
		Topology: Topology{Kind: TopoRegular, N: 250, Degree: 4},
		Credit:   c,
		Streaming: Streaming{
			StreamRate: 2, DelaySeconds: 6, UploadCap: 2, DownloadCap: 3, SourceSeeds: 4,
		},
		Horizon: 400,
		Seed:    12,
	}
	return mkt, str
}

// compiledPipeline is one engine's compiled policy stages and epoch.
type compiledPipeline struct {
	engine   string
	policies []policy.Policy
	epoch    float64
	err      error
	cfg      any
}

// compileCredit compiles c for the market, streaming and sharded engines;
// each config gets its own stage instances and overlay.
func compileCredit(c Credit) [3]compiledPipeline {
	mkt, str := creditTargets(c)
	m, merr := mkt.MarketConfig(ScaleQuick)
	s, serr := str.StreamingConfig(ScaleQuick)
	h, herr := mkt.ShardConfig(ScaleQuick, 2)
	return [3]compiledPipeline{
		{"market", m.Policies, m.PolicyEpoch, merr, m},
		{"streaming", s.Policies, s.PolicyEpoch, serr, s},
		{"shard", h.Policies, h.PolicyEpoch, herr, h},
	}
}

// TestCreditCompilesToOnePipeline checks that one Credit block compiles to
// one policy pipeline: the market, streaming and sharded configs carry
// equal stage lists with the same epoch period, or all three reject the
// block.
func TestCreditCompilesToOnePipeline(t *testing.T) {
	type block struct {
		name   string
		credit Credit
		reject bool
	}
	var blocks []block
	for _, sc := range All() {
		blocks = append(blocks, block{name: "preset/" + sc.Name, credit: sc.Credit})
	}
	blocks = append(blocks,
		block{name: "tax+inject", credit: Credit{
			InitialWealth: 20, TaxRate: 0.25, TaxThreshold: 15, InjectAmount: 2, InjectPeriod: 0.15,
		}},
		block{name: "tax+declared", credit: Credit{
			InitialWealth: 20, TaxRate: 0.3, TaxThreshold: 25,
			Policies: []PolicySpec{
				{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40},
				{Kind: PolicySubsidy, Amount: 3, FromPot: true},
			},
			PolicyEpoch: 0.05,
		}},
		block{name: "inject+matching-epoch", credit: Credit{
			InitialWealth: 20, InjectAmount: 1, InjectPeriod: 0.1,
			Policies:    []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40}},
			PolicyEpoch: 0.1,
		}},
		block{name: "inject-period-vs-epoch-conflict", reject: true, credit: Credit{
			InitialWealth: 20, InjectAmount: 1, InjectPeriod: 0.1,
			Policies:    []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40}},
			PolicyEpoch: 0.25,
		}},
		block{name: "zero-inject-period", reject: true, credit: Credit{
			InitialWealth: 20, InjectAmount: 1,
		}},
		block{name: "nan-inject-period", reject: true, credit: Credit{
			InitialWealth: 20, InjectAmount: 1, InjectPeriod: math.NaN(),
		}},
		block{name: "tax-rate-above-1", reject: true, credit: Credit{
			InitialWealth: 20, TaxRate: 1.5, TaxThreshold: 10,
		}},
		block{name: "epoch-at-default-window", credit: Credit{
			InitialWealth: 20,
			Policies:      []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40}},
			PolicyEpoch:   1.0 / shard.DefaultWindows,
		}},
		block{name: "epoch-below-default-window", reject: true, credit: Credit{
			InitialWealth: 20,
			Policies:      []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40}},
			PolicyEpoch:   0.5 / shard.DefaultWindows,
		}},
		block{name: "tiny-epoch", reject: true, credit: Credit{
			InitialWealth: 20,
			Policies:      []PolicySpec{{Kind: PolicyDemurrage, Rate: 0.05, Threshold: 40}},
			PolicyEpoch:   1e-12,
		}},
		block{name: "inject-period-below-default-window", reject: true, credit: Credit{
			InitialWealth: 20, InjectAmount: 1, InjectPeriod: 0.005,
		}},
	)
	for _, b := range blocks {
		t.Run(b.name, func(t *testing.T) {
			got := compileCredit(b.credit)
			if b.reject {
				for _, c := range got {
					if c.err == nil {
						t.Errorf("%s accepted the block", c.engine)
					}
				}
				return
			}
			for _, c := range got {
				if c.err != nil {
					t.Fatalf("%s rejected the block: %v", c.engine, c.err)
				}
			}
			ref := got[0]
			for _, c := range got[1:] {
				if !reflect.DeepEqual(c.policies, ref.policies) {
					t.Errorf("%s stages %s, %s stages %s", c.engine, describe(c.policies), ref.engine, describe(ref.policies))
				}
				if c.epoch != ref.epoch {
					t.Errorf("%s epoch %v, %s epoch %v", c.engine, c.epoch, ref.engine, ref.epoch)
				}
			}
		})
	}
}

// describe renders a stage list for failure messages.
func describe(ps []policy.Policy) string {
	s := "["
	for i, p := range ps {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%T%+v", p, p)
	}
	return s + "]"
}

// FuzzCreditCompile fuzzes a Credit block — the tax, injection and epoch
// scalars plus one declared PolicySpec appended to a preset's pipeline —
// over a small market and streaming scenario. It never panics, the three
// compile targets agree on accepting or rejecting the block, and every
// accepted config constructs and starts on its engine.
func FuzzCreditCompile(f *testing.F) {
	presets := All()
	for i, sc := range presets {
		c := sc.Credit
		f.Add(uint8(i), c.TaxRate, c.TaxThreshold, c.InjectAmount, c.InjectPeriod, c.PolicyEpoch,
			uint8(0), 0.0, int64(0), 0.0, 0.0, 0.0, 0.0, int64(0), false)
	}
	f.Add(uint8(0), 0.3, int64(10), int64(1), 0.1, 0.1,
		uint8(PolicyDemurrage), 0.05, int64(30), 0.0, 0.0, 0.0, 0.0, int64(0), false)
	f.Add(uint8(0), 0.0, int64(0), int64(0), 0.0, 0.05,
		uint8(PolicyAdaptiveTax), 0.1, int64(20), 0.3, 0.5, 0.0, 0.6, int64(0), false)
	f.Add(uint8(0), 0.2, int64(5), int64(0), 0.0, 0.0,
		uint8(PolicySubsidy), 0.0, int64(0), 0.0, 0.0, 0.0, 0.0, int64(4), true)
	f.Add(uint8(0), 0.0, int64(0), int64(1), math.NaN(), 0.0,
		uint8(0), 0.0, int64(0), 0.0, 0.0, 0.0, 0.0, int64(0), false)
	f.Add(uint8(0), 0.0, int64(0), int64(0), 0.0, 1e-12,
		uint8(PolicyDemurrage), 0.05, int64(30), 0.0, 0.0, 0.0, 0.0, int64(0), false)
	f.Fuzz(func(t *testing.T, base uint8, taxRate float64, taxThreshold, injectAmount int64,
		injectPeriod, policyEpoch float64, kind uint8, rate float64, threshold int64,
		targetGini, gain, minRate, maxRate float64, amount int64, fromPot bool) {
		c := presets[int(base)%len(presets)].Credit
		c.InitialWealth = 10
		c.TaxRate, c.TaxThreshold = taxRate, taxThreshold
		c.InjectAmount, c.InjectPeriod = injectAmount, injectPeriod
		c.PolicyEpoch = policyEpoch
		c.Policies = append([]PolicySpec(nil), c.Policies...)
		if kind != 0 {
			c.Policies = append(c.Policies, PolicySpec{
				Kind: PolicyKind(kind), Rate: rate, Threshold: threshold,
				TargetGini: targetGini, Gain: gain, MinRate: minRate, MaxRate: maxRate,
				Amount: amount, FromPot: fromPot,
			})
		}
		got := compileCredit(c)
		for _, g := range got[1:] {
			if (g.err == nil) != (got[0].err == nil) {
				t.Fatalf("%s error %v, %s error %v", g.engine, g.err, got[0].engine, got[0].err)
			}
		}
		if got[0].err != nil {
			return
		}
		if e := got[0].epoch; e < 0 || math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("accepted epoch period %v", e)
		}
		m, err := market.NewSim(got[0].cfg.(market.Config))
		if err == nil {
			err = m.Start()
		}
		if err != nil {
			t.Fatalf("market: %v", err)
		}
		s, err := streaming.NewSim(got[1].cfg.(streaming.Config))
		if err == nil {
			err = s.Start()
		}
		if err != nil {
			t.Fatalf("streaming: %v", err)
		}
		e, err := shard.New(got[2].cfg.(shard.Config))
		if err == nil {
			err = e.Start()
		}
		if err != nil {
			t.Fatalf("shard: %v", err)
		}
	})
}
