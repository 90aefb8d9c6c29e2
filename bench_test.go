package creditp2p

// One benchmark per paper artifact (Table I, Figs. 1-11) plus the DESIGN.md
// ablations. Each bench regenerates the artifact at the Quick preset via
// the experiment registry — the same code path as `cmd/experiments` — so
// `go test -bench=.` doubles as a smoke-reproduction of the entire
// evaluation. Micro-benchmarks for the analytic kernels follow.

import (
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"creditp2p/internal/core"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/queueing"
	"creditp2p/internal/shard"
	"creditp2p/internal/stats"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// peakRSSBytes reads the process's high-water resident set (VmHWM) from
// /proc; 0 when unavailable (non-Linux).
func peakRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseUint(fields[0], 10, 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// heapBytesNow returns the bytes currently allocated on the heap without
// forcing a collection: immediately after a simulation returns, steady-state
// allocation is near zero, so this approximates the run's live footprint.
func heapBytesNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// reportBytesPerPeer turns a before/after heap measurement into the
// B/peer metric guarded by TestSimMemoryPerPeerCeilings.
func reportBytesPerPeer(b *testing.B, before, after uint64, peers int) {
	if after > before {
		b.ReportMetric(float64(after-before)/float64(peers), "B/peer")
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(id, Quick, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Mapping regenerates the Table I mapping (via the model
// builder the mapping defines) on the paper's overlay.
func BenchmarkTable1Mapping(b *testing.B) {
	r := xrand.New(1)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 500, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	mu := make(map[int]float64, g.NumNodes())
	for _, id := range g.Nodes() {
		mu[id] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildModel(ModelConfig{Graph: g, Mu: mu, Routing: RoutingUniform}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1SpendingRates(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2Lorenz(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3GiniVsWealth(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4Efficiency(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5EarlyStage(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6LateStage(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7SymmetricGini(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8AsymmetricGini(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9Taxation(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10DynamicRates(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Churn(b *testing.B)         { benchExperiment(b, "fig11") }

// Ablations and extensions from DESIGN.md.
func BenchmarkAblationMarginals(b *testing.B) { benchExperiment(b, "exact-vs-approx") }
func BenchmarkAblationThreshold(b *testing.B) { benchExperiment(b, "threshold") }
func BenchmarkExtPricing(b *testing.B)        { benchExperiment(b, "pricing") }
func BenchmarkExtInflation(b *testing.B)      { benchExperiment(b, "inflation") }

// --- Analytic kernel micro-benchmarks ---

func BenchmarkGini1000(b *testing.B) {
	r := xrand.New(3)
	values := make([]float64, 1000)
	for i := range values {
		values[i] = r.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Gini(values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuzenConvolutionN100M10000(b *testing.B) {
	u := make([]float64, 100)
	for i := range u {
		u[i] = 0.3 + 0.007*float64(i)
	}
	u[99] = 1
	closed, err := queueing.NewClosed(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := closed.LogG(10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactMarginalN100M1000(b *testing.B) {
	u := make([]float64, 100)
	for i := range u {
		u[i] = 0.5
	}
	u[0] = 1
	closed, err := queueing.NewClosed(u)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := closed.Marginal(0, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProductFormSampling(b *testing.B) {
	u := make([]float64, 200)
	for i := range u {
		u[i] = 1
	}
	closed, err := queueing.NewClosed(u)
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := closed.NewSampler(20000)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.Sample(r)
	}
}

func BenchmarkThresholdEq4(b *testing.B) {
	d := core.BetaLikeDensity{Alpha: 2}
	for i := 0; i < b.N; i++ {
		core.Threshold(d)
	}
}

// The sim benchmarks build the overlay once outside the timed loop (neither
// simulator mutates the graph without churn), so ns/op and allocs/op measure
// the simulation engine itself rather than topology generation.

func BenchmarkMarketSim(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.RandomRegular(100, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Horizon:       1000,
			Seed:          8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SpendEvents), "events/run")
	}
}

// BenchmarkMarketSimPolicy is BenchmarkMarketSim with a full policy
// pipeline — adaptive tax, demurrage, redistribution — so the CI allocs
// guard covers the policy engine's hot paths: the income hook on every
// spend and the epoch sweeps. The pipeline must not put the engine on an
// allocating path (the policies mutate flat state through the kernel
// host).
func BenchmarkMarketSimPolicy(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.RandomRegular(100, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, err := NewAdaptiveTaxPolicy(AdaptiveTaxConfig{
			TargetGini: 0.3, Gain: 0.5, MaxRate: 0.7, Threshold: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		dem, err := NewDemurragePolicy(0.05, 40)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Horizon:       1000,
			Policies:      []EconomicPolicy{at, dem, NewRedistributePolicy()},
			PolicyEpoch:   25,
			Seed:          8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SpendEvents), "events/run")
	}
}

func BenchmarkStreamingSim(b *testing.B) {
	r := xrand.New(9)
	g, err := topology.RandomRegular(100, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunStreaming(StreamingConfig{
			Graph:          g,
			StreamRate:     1,
			DelaySeconds:   10,
			UploadCap:      1,
			DownloadCap:    2,
			SourceSeeds:    3,
			InitialWealth:  12,
			HorizonSeconds: 300,
			Seed:           10,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ChunksTraded), "chunks/run")
	}
}

// The Large benchmarks run 100k-peer populations on the scale engine:
// CSR scale-free overlay, calendar-queue scheduler, balance-histogram Gini
// sampling. Memory stays O(N+E) and the per-event / per-chunk cost must
// stay within ~2x of the N=100 benchmarks above (BENCH_2.json records the
// trajectory). The overlay is built once outside the timed loop, matching
// the small benchmarks.

func BenchmarkMarketSimLarge(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Horizon:       20,
			Seed:          8,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.SpendEvents
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.SpendEvents), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, 100_000)
}

func BenchmarkStreamingSimLarge(b *testing.B) {
	r := xrand.New(9)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var chunks uint64
	for i := 0; i < b.N; i++ {
		res, err := RunStreaming(StreamingConfig{
			Graph:          g,
			StreamRate:     1,
			DelaySeconds:   10,
			UploadCap:      1,
			DownloadCap:    2,
			SourceSeeds:    30,
			InitialWealth:  12,
			HorizonSeconds: 40,
			Seed:           10,
		})
		if err != nil {
			b.Fatal(err)
		}
		chunks = res.ChunksTraded
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.ChunksTraded), "chunks/run")
	}
	if chunks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*chunks), "ns/chunk")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, 100_000)
}

// The weighted-routing benchmarks pin the single-threaded market's cost
// model at N=10k: every draw is the O(degree) scan over the spender's
// cached weights (with an exp() per neighbor per draw for availability
// routing). ns/event is the comparison.

func benchWeightedMarket(b *testing.B, routing Routing) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 10_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Routing:       routing,
			Horizon:       20,
			Seed:          8,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.SpendEvents
		b.ReportMetric(float64(res.SpendEvents), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
}

func BenchmarkMarketDegreeExact(b *testing.B) { benchWeightedMarket(b, RouteDegreeWeighted) }

// BenchmarkMarketDegreeChurnExact measures degree routing under heavy
// turnover, where every join/depart dirty-marks whole neighborhoods and
// the next spend rebuilds them (lists and degree weights).
func BenchmarkMarketDegreeChurnExact(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 10_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		graph := g.Clone() // churn mutates the overlay
		b.StartTimer()
		res, err := RunMarket(MarketConfig{
			Graph:         graph,
			InitialWealth: 20,
			DefaultMu:     1,
			Routing:       RouteDegreeWeighted,
			Horizon:       20,
			Churn: &ChurnConfig{
				ArrivalRate:  200,
				MeanLifespan: 50,
				AttachDegree: 4,
				FastAttach:   true,
			},
			Seed: 8,
		})
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

func BenchmarkMarketAvailabilityExact(b *testing.B) { benchWeightedMarket(b, RouteAvailability) }

// The XLarge benchmarks run N=1,000,000 single-machine populations — the
// memory-diet acceptance gate. BenchmarkMarketSimXLarge fails outright if
// the process's peak RSS crosses 10 GB. Run with -benchtime=1x; excluded
// from CI like the Large pair.

func BenchmarkMarketSimXLarge(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := RunMarket(MarketConfig{
			Graph:         g,
			InitialWealth: 20,
			DefaultMu:     1,
			Horizon:       5,
			Seed:          8,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.SpendEvents
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.SpendEvents), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, 1_000_000)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
		if rss > 10<<30 {
			b.Fatalf("peak RSS %.2f GB exceeds the 10 GB million-peer budget", float64(rss)/(1<<30))
		}
	}
}

func BenchmarkStreamingSimXLarge(b *testing.B) {
	r := xrand.New(9)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var chunks uint64
	for i := 0; i < b.N; i++ {
		res, err := RunStreaming(StreamingConfig{
			Graph:          g,
			StreamRate:     1,
			DelaySeconds:   10,
			UploadCap:      1,
			DownloadCap:    2,
			SourceSeeds:    300,
			InitialWealth:  12,
			HorizonSeconds: 16,
			Seed:           10,
		})
		if err != nil {
			b.Fatal(err)
		}
		chunks = res.ChunksTraded
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.ChunksTraded), "chunks/run")
	}
	if chunks > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*chunks), "ns/chunk")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, 1_000_000)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
	}
}

// The Shard benchmarks run the sharded multi-core kernel (internal/shard):
// per-shard lanes with their own calendar queues and RNG streams, advancing
// in conservative-sync windows with canonically merged cross-shard credit
// transfers. Results are byte-identical at every shard count, so events/run
// printed by the P=1 and P=8 variants must agree exactly — that identity is
// part of the BENCH_7 acceptance. The overlay is built once outside the
// timed loop, as in the legacy benchmarks above.

func benchShardMarket(b *testing.B, g *topology.Graph, peers, shards int, horizon float64) {
	b.Helper()
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := shard.Run(shard.Config{
			Graph:         g,
			Shards:        shards,
			Horizon:       horizon,
			Seed:          8,
			InitialWealth: 20,
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.Events), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, peers)
}

// BenchmarkShardMarketLarge is the CI race-detector target: 100k peers at
// four lanes, small enough to finish under -race in seconds while
// exercising the parallel window phases and the merge path.
func BenchmarkShardMarketLarge(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	benchShardMarket(b, g, 100_000, 4, 20)
}

// The Policy pair runs the same sharded market with an income-tax +
// redistribution pipeline installed, which forces every window through the
// coordinator's globally merged canonical apply pass — the policy-path
// barrier is the cost these benches exist to pin. Large (100k peers, four
// lanes) is the CI allocs-guard target; XLarge (1M peers, eight lanes) is
// the BENCH_8 acceptance bench.

func benchShardMarketPolicy(b *testing.B, g *topology.Graph, peers, shards int, horizon float64) {
	b.Helper()
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			b.Fatal(err)
		}
		it, err := policy.NewIncomeTax(0.25, 15)
		if err != nil {
			b.Fatal(err)
		}
		res, err := shard.Run(shard.Config{
			Graph:         g,
			Shards:        shards,
			Horizon:       horizon,
			Seed:          8,
			InitialWealth: 20,
			Policies:      []policy.Policy{it, policy.NewRedistribute()},
			PolicyEpoch:   horizon / 5,
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.Events), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, peers)
}

func BenchmarkShardMarketLargePolicy(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	benchShardMarketPolicy(b, g, 100_000, 4, 20)
}

func BenchmarkShardMarketXLargePolicy(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	benchShardMarketPolicy(b, g, 1_000_000, 8, 5)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
	}
}

// The XLarge pair is the interleaved A/B against BenchmarkMarketSimXLarge:
// same overlay family, population and horizon (1M scale-free peers,
// horizon 5). P=1 measures the sharded kernel's single-lane cost; P=8 the
// eight-lane configuration of the acceptance gate.

func benchShardMarketXLarge(b *testing.B, shards int) {
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	benchShardMarket(b, g, 1_000_000, shards, 5)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
	}
}

func BenchmarkShardMarketXLarge(b *testing.B)  { benchShardMarketXLarge(b, 1) }
func BenchmarkShardMarketXLarge8(b *testing.B) { benchShardMarketXLarge(b, 8) }

// The routed XLarge pair is the same 1M-peer eight-lane churned market
// under uniform routing (the cost baseline) and availability-weighted
// Fenwick routing (the feature; must stay within 1.6x of uniform
// per-event). Churn is on in both — availability weighting is inert
// without lifecycle transitions — so uniform here is a separate baseline
// from BenchmarkShardMarketXLarge8. The sampler itself against an
// O(degree) scan is BenchmarkWeightPick in internal/shard.

func benchShardMarketRouted(b *testing.B, rc shard.RoutingConfig) {
	b.Helper()
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 1_000_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	heapBase := heapBytesNow()
	var heapAfter uint64
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := shard.Run(shard.Config{
			Graph:         g,
			Shards:        8,
			Horizon:       5,
			Seed:          8,
			InitialWealth: 20,
			Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
			Routing:       rc,
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
		heapAfter = heapBytesNow()
		b.ReportMetric(float64(res.Events), "events/run")
	}
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
	}
	reportBytesPerPeer(b, heapBase, heapAfter, 1_000_000)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
	}
}

func BenchmarkShardMarketXLargeUniformChurn(b *testing.B) {
	benchShardMarketRouted(b, shard.RoutingConfig{})
}

func BenchmarkShardMarketXLargeWeighted(b *testing.B) {
	benchShardMarketRouted(b, shard.RoutingConfig{Mode: shard.RouteAvailability})
}

// The race-drill pair runs the two lane-state paths the unit tests cover
// only at small populations at a scale where every lane owns tens of
// thousands of peers: an availability-routed churn market (lane-owned
// Fenwick rebuilds, lifecycle buffers, the weight-mirror publish) and a
// checkpointed streaming run with a policy pipeline (the parallel
// per-lane fragment encode and the background writer goroutine). CI runs
// each once under the race detector.

func BenchmarkShardAvailChurnLarge(b *testing.B) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 50_000, Alpha: 2.5, MeanDegree: 20}, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := shard.Run(shard.Config{
			Graph:         g,
			Shards:        4,
			Horizon:       8,
			Seed:          8,
			InitialWealth: 20,
			Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
			Routing:       shard.RoutingConfig{Mode: shard.RouteAvailability},
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

func BenchmarkShardStreamingCheckpointLarge(b *testing.B) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 20_000, Alpha: 2.5, MeanDegree: 20}, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := streaming.NewShard(streaming.ShardConfig{StreamRate: 4, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		it, err := policy.NewIncomeTax(0.3, 20)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := shard.NewSim(shard.Config{
			Graph:         g,
			Shards:        4,
			Horizon:       4,
			Window:        4.0 / 128,
			Seed:          8,
			InitialWealth: 20,
			Policies:      []policy.Policy{it, policy.NewRedistribute()},
			PolicyEpoch:   0.4,
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			b.Fatal(err)
		}
		sink := &discardSink{}
		ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
		for k := 1; sim.StepWindow(); k++ {
			if k%8 == 0 {
				if err := ck.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := ck.Close(); err != nil {
			b.Fatal(err)
		}
		if st := ck.Stats(); st.Bases == 0 || sink.bytes == 0 {
			b.Fatalf("no checkpoint written: %+v", st)
		}
		res, err := sim.Finish()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/run")
	}
}

// BenchmarkRoutingPickFenwick isolates the sampler over one warm
// availability-routed engine, without the kernel's fixed per-event
// overhead. Picks cycle through every peer, weighting hubs exactly as
// often as leaves.
func BenchmarkRoutingPickFenwick(b *testing.B) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 20_000, Alpha: 2.5, MeanDegree: 20}, xrand.New(7))
	if err != nil {
		b.Fatal(err)
	}
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := shard.New(shard.Config{
		Graph:         g,
		Shards:        1,
		Horizon:       20,
		Seed:          8,
		InitialWealth: 20,
		Churn:         shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
		Routing:       shard.RoutingConfig{Mode: shard.RouteAvailability},
		Workload:      w,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 30; i++ { // let churn spread the EWMA weights
		if !e.StepWindow() {
			b.Fatal("horizon exhausted during warmup")
		}
	}
	ln := e.Lanes()[0]
	r := xrand.NewSplitMix64(11, 3)
	t := e.Horizon()
	var sink int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := int32(i % e.N())
		nbrs := e.Neighbors(g)
		if len(nbrs) == 0 {
			continue
		}
		sink += ln.PickNeighbor(t, g, nbrs, &r)
	}
	if sink == 0 && b.N > 100 {
		b.Fatal("sampler returned only peer 0; measurement is broken")
	}
}

// The Checkpoint pair measures the barrier-visible checkpoint stall on
// the 1M-peer sharded market at eight lanes. Both run the identical
// simulation at the identical cadence (one checkpoint per
// conservative-sync window, on a fine 1e-4 window: the
// lose-at-most-a-window fault-tolerance regime frequent checkpoints exist
// for) and differ only in the mechanism:
//
//   - FullSerial:     data := sim.Snapshot() inline at the barrier — the
//     synchronous path (its file write is excluded, which only flatters
//     the baseline).
//   - FullPipelined:  the Checkpointer — parallel fragment encode at the
//     barrier, seal+write on the background goroutine.
//
// The reported stall-ns/checkpoint is the time the simulation is
// actually blocked at the barrier; bytes/checkpoint is the sealed output
// size. Sinks discard, so disk speed never enters the comparison.

// discardSink counts sealed checkpoint bytes without keeping them.
type discardSink struct{ bytes uint64 }

func (d *discardSink) WriteBase(p []byte) error { d.bytes += uint64(len(p)); return nil }

func benchShardCheckpoint(b *testing.B, pipelined bool) {
	const (
		peers       = 1_000_000
		shards      = 8
		warmup      = 16
		checkpoints = 12
	)
	r := xrand.New(7)
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: peers, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		b.Fatal(err)
	}
	var stall time.Duration
	var encBytes uint64
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := shard.NewSim(shard.Config{
			Graph:         g,
			Shards:        shards,
			Horizon:       5,
			Window:        1e-4,
			Seed:          8,
			InitialWealth: 20,
			Workload:      w,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < warmup; k++ {
			if !sim.StepWindow() {
				b.Fatal("horizon inside warmup")
			}
		}
		if !pipelined {
			for c := 0; c < checkpoints; c++ {
				if !sim.StepWindow() {
					b.Fatal("horizon inside the checkpoint loop")
				}
				t0 := time.Now()
				data := sim.Snapshot()
				stall += time.Since(t0)
				encBytes += uint64(len(data))
			}
		} else {
			sink := &discardSink{}
			ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
			for c := 0; c < checkpoints; c++ {
				if !sim.StepWindow() {
					b.Fatal("horizon inside the checkpoint loop")
				}
				t0 := time.Now()
				if err := ck.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				stall += time.Since(t0)
			}
			if err := ck.Close(); err != nil {
				b.Fatal(err)
			}
			encBytes += sink.bytes
		}
		total += checkpoints
	}
	b.ReportMetric(float64(stall.Nanoseconds())/float64(total), "stall-ns/checkpoint")
	b.ReportMetric(float64(encBytes)/float64(total), "bytes/checkpoint")
}

func BenchmarkShardCheckpointFullSerial(b *testing.B)    { benchShardCheckpoint(b, false) }
func BenchmarkShardCheckpointFullPipelined(b *testing.B) { benchShardCheckpoint(b, true) }

// BenchmarkShardMarket10M is the ten-million-peer single run. The ring
// overlay keeps graph generation out of the interesting cost (scale-free
// preferential attachment at 10M would dominate the bench setup), and the
// bench fails outright if peak RSS crosses the 8 GB budget from the
// BENCH_7 acceptance.
func BenchmarkShardMarket10M(b *testing.B) {
	r := xrand.New(7)
	g, err := topology.Ring(10_000_000, 4, r)
	if err != nil {
		b.Fatal(err)
	}
	benchShardMarket(b, g, 10_000_000, 8, 1)
	if rss := peakRSSBytes(); rss > 0 {
		b.ReportMetric(float64(rss)/(1<<30), "peakRSS-GB")
		if rss > 8<<30 {
			b.Fatalf("peak RSS %.2f GB exceeds the 8 GB ten-million-peer budget", float64(rss)/(1<<30))
		}
	}
}
