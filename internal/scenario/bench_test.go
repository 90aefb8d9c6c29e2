package scenario

import (
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/streaming"
)

// benchMarketScenario compiles the named market scenario once (topology
// generation outside the timer, matching the engine benchmarks) and runs
// it, reporting events/run and ns/event. The events denominator counts
// every simulation event the run executes: credit spends plus churn joins
// and departures.
func benchMarketScenario(b *testing.B, name string, scale Scale) {
	b.Helper()
	sc, err := Get(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sc.MarketConfig(scale)
	if err != nil {
		b.Fatal(err)
	}
	graph := cfg.Graph
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Graph = graph.Clone() // churn mutates the overlay
		res, err := market.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.SpendEvents + res.Joins + res.Departures
		b.ReportMetric(float64(events), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
}

// BenchmarkScenarioFlashCrowd is the CI-guarded scenario benchmark: the
// quick-scale flash crowd exercises the kernel's churn process, the
// piecewise-envelope arrival sampler and the incremental neighborhood
// maintenance in one run.
func BenchmarkScenarioFlashCrowd(b *testing.B) {
	benchMarketScenario(b, "flash-crowd", ScaleQuick)
}

// The Large variants measure the 100k-peer scenario instances for
// BENCH_3.json; excluded from CI like the other Large benchmarks.
func BenchmarkScenarioFlashCrowdLarge(b *testing.B) {
	benchMarketScenario(b, "flash-crowd", ScaleLarge)
}

func BenchmarkScenarioDiurnalChurnLarge(b *testing.B) {
	benchMarketScenario(b, "diurnal-churn", ScaleLarge)
}

func BenchmarkScenarioFreeRiderMixLarge(b *testing.B) {
	benchMarketScenario(b, "free-rider-mix", ScaleLarge)
}

func benchStreamingScenario(b *testing.B, name string, scale Scale) {
	sc, err := Get(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sc.StreamingConfig(scale)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var chunks uint64
	for i := 0; i < b.N; i++ {
		res, err := streaming.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		chunks = res.ChunksTraded
		b.ReportMetric(float64(chunks), "chunks/run")
	}
	if chunks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*chunks), "ns/chunk")
	}
}

func BenchmarkScenarioSeederDrainLarge(b *testing.B) {
	benchStreamingScenario(b, "seeder-drain", ScaleLarge)
}

// The XLarge variants compile each preset at a million peers (the
// fast-sampling engine). Run them with
// -benchtime=1x; like the Large pair they are excluded from CI.
func BenchmarkScenarioFlashCrowdXLarge(b *testing.B) {
	benchMarketScenario(b, "flash-crowd", ScaleXLarge)
}

func BenchmarkScenarioDiurnalChurnXLarge(b *testing.B) {
	benchMarketScenario(b, "diurnal-churn", ScaleXLarge)
}

func BenchmarkScenarioFreeRiderMixXLarge(b *testing.B) {
	benchMarketScenario(b, "free-rider-mix", ScaleXLarge)
}

func BenchmarkScenarioSeederDrainXLarge(b *testing.B) {
	benchStreamingScenario(b, "seeder-drain", ScaleXLarge)
}
