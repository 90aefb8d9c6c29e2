package streaming

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"creditp2p/internal/credit"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// identicalResults asserts byte-identical Results: every per-peer rate,
// continuity value, balance, counter and series sample.
func identicalResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.ChunksTraded != b.ChunksTraded || a.ChunksSeeded != b.ChunksSeeded || a.Stalls != b.Stalls {
		t.Errorf("counters differ: traded %d/%d seeded %d/%d stalls %d/%d",
			a.ChunksTraded, b.ChunksTraded, a.ChunksSeeded, b.ChunksSeeded, a.Stalls, b.Stalls)
	}
	if a.GiniSpending != b.GiniSpending || a.GiniWealth != b.GiniWealth {
		t.Errorf("ginis differ: %v/%v vs %v/%v",
			a.GiniSpending, a.GiniWealth, b.GiniSpending, b.GiniWealth)
	}
	if a.WealthGini.Len() != b.WealthGini.Len() {
		t.Fatalf("series lengths differ: %d vs %d", a.WealthGini.Len(), b.WealthGini.Len())
	}
	for i := range a.WealthGini.Values {
		if a.WealthGini.Times[i] != b.WealthGini.Times[i] || a.WealthGini.Values[i] != b.WealthGini.Values[i] {
			t.Fatalf("wealth-gini sample %d differs: %v vs %v", i, a.WealthGini.Values[i], b.WealthGini.Values[i])
		}
	}
	if len(a.FinalWealth) != len(b.FinalWealth) {
		t.Fatalf("final wealth sizes differ")
	}
	for id, wa := range a.FinalWealth {
		if b.FinalWealth[id] != wa {
			t.Fatalf("wealth differs at peer %d: %d vs %d", id, wa, b.FinalWealth[id])
		}
	}
	for id, ra := range a.SpendingRate {
		if b.SpendingRate[id] != ra {
			t.Fatalf("spending rate differs at peer %d", id)
		}
	}
	for id, ca := range a.Continuity {
		if b.Continuity[id] != ca {
			t.Fatalf("continuity differs at peer %d", id)
		}
	}
	for id, da := range a.DownloadRate {
		if b.DownloadRate[id] != da {
			t.Fatalf("download rate differs at peer %d", id)
		}
	}
}

// TestGoldenDeterminism runs the streaming market twice per configuration
// with the same seed and demands identical Results: every per-peer rate,
// continuity value, balance and series sample.
func TestGoldenDeterminism(t *testing.T) {
	type variant struct {
		name    string
		pricing func(g *topology.Graph) credit.Pricing
		caps    map[int]int
	}
	variants := []variant{
		{name: "uniform", pricing: nil},
		{name: "per-seller-poisson", pricing: func(g *topology.Graph) credit.Pricing {
			r := xrand.New(77)
			prices := make(map[int]int64, g.NumNodes())
			for _, id := range g.Nodes() {
				prices[id] = int64(r.Poisson(1))
			}
			return credit.PerPeerPricing{Prices: prices, Default: 1}
		}},
		{name: "per-chunk-poisson", pricing: func(*topology.Graph) credit.Pricing {
			p, err := credit.NewPoissonPricing(1, 0, xrand.New(79))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{name: "heterogeneous-upload", pricing: nil, caps: map[int]int{0: 3, 4: 2, 8: 5}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func() *Result {
				g, err := topology.RandomRegular(80, 8, xrand.New(501))
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Graph:          g,
					StreamRate:     2,
					DelaySeconds:   8,
					UploadCap:      1,
					DownloadCap:    3,
					UploadCapOf:    v.caps,
					SourceSeeds:    3,
					InitialWealth:  15,
					HorizonSeconds: 200,
					Seed:           502,
				}
				if v.pricing != nil {
					cfg.Pricing = v.pricing(g)
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			identicalResults(t, a, b)
		})
	}
}

// TestWealthGiniGoldenPaperScale pins the wealth-Gini output at paper
// scale: a run on the N=500 scale-free overlay must reproduce the chunk
// count and every WealthGini sample (digested over their exact float
// bits) that the sorting sampler produced, so the balance-histogram
// sampler is held to the sorted reference.
func TestWealthGiniGoldenPaperScale(t *testing.T) {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 500, Alpha: 2.5, MeanDegree: 20}, xrand.New(601))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:          g,
		StreamRate:     2,
		DelaySeconds:   8,
		UploadCap:      1,
		DownloadCap:    3,
		SourceSeeds:    4,
		InitialWealth:  15,
		HorizonSeconds: 250,
		Seed:           602,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := range res.WealthGini.Values {
		put(res.WealthGini.Times[i])
		put(res.WealthGini.Values[i])
	}
	put(res.GiniWealth)
	const wantTraded, wantDigest = 104142, 0xc0597a9ddfa8be78
	if res.ChunksTraded != wantTraded || h.Sum64() != wantDigest {
		t.Errorf("traded %d, wealth-Gini digest %016x; the sorting sampler gave %d, %016x", res.ChunksTraded, h.Sum64(), wantTraded, uint64(wantDigest))
	}
}
