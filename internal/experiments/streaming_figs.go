package experiments

import (
	"fmt"
	"io"
	"sort"

	"creditp2p/internal/credit"
	"creditp2p/internal/stats"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Credit spending rates with and without wealth condensation",
		Paper: "Fig. 1: c=200 + Poisson-priced chunks condenses (Gini≈0.9); c=12 + uniform 1-credit pricing stays balanced (Gini≈0.1).",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "pricing",
		Title: "Extension: pricing-scheme sweep on the streaming market",
		Paper: "Sec. V-C / VII: uniform pricing keeps utilization symmetric; dispersed seller pricing induces condensation.",
		Run:   runPricing,
	})
}

type fig1Scale struct {
	n, horizon int
}

func fig1ScaleOf(p Preset) fig1Scale {
	switch p {
	case Full:
		return fig1Scale{n: 500, horizon: 20000}
	case Large:
		return fig1Scale{n: 100_000, horizon: 400}
	case XLarge:
		return fig1Scale{n: 1_000_000, horizon: 60}
	default:
		return fig1Scale{n: 200, horizon: 1500}
	}
}

func fig1Overlay(n int, seed int64) (*topology.Graph, error) {
	// Degree-regular mesh: isolates the paper's knobs (wealth and pricing)
	// from degree-driven income dispersion; see EXPERIMENTS.md for the
	// scale-free variant.
	return topology.RandomRegular(n, 16, xrand.New(seed))
}

func fig1Config(g *topology.Graph, wealth int64, pricing credit.Pricing, s fig1Scale) streaming.Config {
	return streaming.Config{
		Graph:          g,
		StreamRate:     1,
		DelaySeconds:   15,
		UploadCap:      1,
		DownloadCap:    2,
		SourceSeeds:    3,
		InitialWealth:  wealth,
		Pricing:        pricing,
		HorizonSeconds: s.horizon,
		Seed:           9,
	}
}

// sellerPoissonPricing draws one flat Poisson(1) price per seller — the
// paper's "different credits for different chunks, Poisson with an average
// of 1 credit" realized as persistent seller price identities (Sec. V-C's
// non-uniform pricing).
func sellerPoissonPricing(g *topology.Graph, seed int64) credit.PerPeerPricing {
	r := xrand.New(seed)
	prices := make(map[int]int64, g.NumNodes())
	for _, id := range g.Nodes() {
		prices[id] = int64(r.Poisson(1))
	}
	return credit.PerPeerPricing{Prices: prices, Default: 1}
}

func spendingProfile(res *streaming.Result) []float64 {
	rates := make([]float64, 0, len(res.SpendingRate))
	for _, v := range res.SpendingRate {
		rates = append(rates, v)
	}
	sort.Float64s(rates)
	return rates
}

func runFig1(p Preset, w io.Writer) error {
	s := fig1ScaleOf(p)
	results, err := parMap(2, func(i int) (*streaming.Result, error) {
		g, err := fig1Overlay(s.n, 7)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			return streaming.Run(fig1Config(g, 12, nil, s))
		}
		return streaming.Run(fig1Config(g, 200, sellerPoissonPricing(g, 11), s))
	})
	if err != nil {
		return err
	}
	healthy, condensed := results[0], results[1]

	tab := trace.Table{Header: []string{"case", "gini(spending)", "gini(wealth)", "mean continuity", "chunks traded"}}
	var set trace.Set
	for _, tc := range []struct {
		name string
		res  *streaming.Result
	}{
		{"c=12, uniform 1 credit (healthy)", healthy},
		{"c=200, Poisson prices (condensed)", condensed},
	} {
		var contSum float64
		for _, v := range tc.res.Continuity {
			contSum += v
		}
		tab.AddRow(tc.name,
			trace.FormatFloat(tc.res.GiniSpending),
			trace.FormatFloat(tc.res.GiniWealth),
			trace.FormatFloat(contSum/float64(len(tc.res.Continuity))),
			fmt.Sprintf("%d", tc.res.ChunksTraded))
		series := trace.NewSeries(tc.name)
		for i, v := range spendingProfile(tc.res) {
			series.Add(float64(i), v)
		}
		set.Add(series)
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSorted credit spending rates (x: peer rank, y: credits/s):")
	return trace.Chart{Width: 64, Height: 14}.Render(w, &set)
}

func runPricing(p Preset, w io.Writer) error {
	s := fig1ScaleOf(p)
	const wealth = 100
	schemes := []struct {
		name string
		mk   func(g *topology.Graph) (credit.Pricing, error)
	}{
		{"uniform 1 credit", func(*topology.Graph) (credit.Pricing, error) {
			return credit.UniformPricing{Credits: 1}, nil
		}},
		{"per-seller Poisson(1)", func(g *topology.Graph) (credit.Pricing, error) {
			return sellerPoissonPricing(g, 21), nil
		}},
		{"per-chunk Poisson(1)", func(*topology.Graph) (credit.Pricing, error) {
			return credit.NewPoissonPricing(1, 0, xrand.New(23))
		}},
		{"two-tier (80% @1, 20% @3)", func(g *topology.Graph) (credit.Pricing, error) {
			r := xrand.New(25)
			prices := make(map[int]int64, g.NumNodes())
			for _, id := range g.Nodes() {
				if r.Bernoulli(0.2) {
					prices[id] = 3
				} else {
					prices[id] = 1
				}
			}
			return credit.PerPeerPricing{Prices: prices, Default: 1}, nil
		}},
	}
	results, err := parMap(len(schemes), func(i int) (*streaming.Result, error) {
		g, err := fig1Overlay(s.n, 31)
		if err != nil {
			return nil, err
		}
		pricing, err := schemes[i].mk(g)
		if err != nil {
			return nil, err
		}
		return streaming.Run(fig1Config(g, wealth, pricing, s))
	})
	if err != nil {
		return err
	}
	tab := trace.Table{Header: []string{"pricing", "gini(spending)", "gini(wealth)", "mean continuity"}}
	for i, scheme := range schemes {
		res := results[i]
		var cont []float64
		for _, v := range res.Continuity {
			cont = append(cont, v)
		}
		summary, err := stats.Summarize(cont)
		if err != nil {
			return err
		}
		tab.AddRow(scheme.name,
			trace.FormatFloat(res.GiniSpending),
			trace.FormatFloat(res.GiniWealth),
			trace.FormatFloat(summary.Mean))
	}
	return tab.Write(w)
}
