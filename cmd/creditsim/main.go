// Command creditsim runs one credit-market simulation from flags and
// prints the Gini trajectory, final distribution statistics and the
// analytic sustainability verdict side by side.
//
// Example:
//
//	creditsim -n 200 -degree 16 -wealth 100 -horizon 8000 \
//	          -topology regular -tax-rate 0.2 -tax-threshold 80
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"creditp2p"
	"creditp2p/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "creditsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("creditsim", flag.ContinueOnError)
	n := fs.Int("n", 200, "number of peers")
	degree := fs.Int("degree", 16, "mean/exact degree of the overlay")
	topo := fs.String("topology", "regular", "overlay: regular or scalefree")
	wealth := fs.Int64("wealth", 100, "initial credits per peer (c)")
	horizon := fs.Float64("horizon", 8000, "simulated seconds")
	mu := fs.Float64("mu", 1, "base spending rate (credits/s)")
	taxRate := fs.Float64("tax-rate", 0, "taxation rate (0 disables)")
	taxThreshold := fs.Int64("tax-threshold", 0, "taxation wealth threshold")
	dynamicM := fs.Int64("dynamic-m", 0, "dynamic-spending threshold m (0 = fixed rates)")
	churnArrival := fs.Float64("churn-arrival", 0, "peer arrivals per second (0 = closed)")
	churnLifespan := fs.Float64("churn-lifespan", 0, "mean peer lifespan in seconds")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := creditp2p.NewRNG(*seed)
	var g *creditp2p.Graph
	var err error
	switch *topo {
	case "regular":
		g, err = creditp2p.NewRegularOverlay(*n, *degree, r)
	case "scalefree":
		g, err = creditp2p.NewScaleFreeOverlay(*n, 2.5, float64(*degree), r)
	default:
		return fmt.Errorf("unknown topology %q", *topo)
	}
	if err != nil {
		return err
	}

	// Analytic verdict first.
	muMap := make(map[int]float64, g.NumNodes())
	for _, id := range g.Nodes() {
		muMap[id] = *mu
	}
	model, err := creditp2p.BuildModel(creditp2p.ModelConfig{
		Graph: g, Mu: muMap, Routing: creditp2p.RoutingUniform,
	})
	if err != nil {
		return err
	}
	report, err := creditp2p.Analyze(model, float64(*wealth), creditp2p.AnalyzeOptions{Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("model: N=%d  M=%d  symmetry-index=%.4f  threshold(param)=%s  condenses=%v\n",
		report.N, report.M, report.SymmetryIndex,
		trace.FormatFloat(report.Parametric.Threshold.T), report.Parametric.Condenses)
	if report.ExpectedGini == report.ExpectedGini { // not NaN
		fmt.Printf("analytic equilibrium: gini=%.4f  top-1%%-share=%.4f  efficiency=%.4f\n",
			report.ExpectedGini, report.TopShare, report.Efficiency.Approx)
	}

	cfg := creditp2p.MarketConfig{
		Graph:         g,
		InitialWealth: *wealth,
		DefaultMu:     *mu,
		Horizon:       *horizon,
		Seed:          *seed,
	}
	if *taxRate > 0 {
		tax, err := creditp2p.NewIncomeTaxPolicy(*taxRate, *taxThreshold)
		if err != nil {
			return err
		}
		cfg.Policies = []creditp2p.EconomicPolicy{tax, creditp2p.NewRedistributePolicy()}
	}
	if *dynamicM > 0 {
		cfg.Spending = creditp2p.DynamicSpending{M: *dynamicM}
	}
	if *churnArrival > 0 {
		if *churnLifespan <= 0 {
			return fmt.Errorf("churn requires -churn-lifespan > 0")
		}
		cfg.Churn = &creditp2p.ChurnConfig{
			ArrivalRate:  *churnArrival,
			MeanLifespan: *churnLifespan,
			AttachDegree: *degree,
			Preferential: *topo == "scalefree",
		}
	}
	res, err := creditp2p.RunMarket(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("\nsimulated: events=%d  final-gini=%.4f  joins=%d  departures=%d\n",
		res.SpendEvents, res.FinalGini, res.Joins, res.Departures)
	if *taxRate > 0 {
		fmt.Printf("taxation: collected=%d  redistributed=%d\n", res.TaxCollected, res.TaxRedistributed)
	}
	var set trace.Set
	set.Add(res.Gini)
	fmt.Println("\nGini index over time:")
	if err := (trace.Chart{Width: 64, Height: 14, YMax: 1}).Render(os.Stdout, &set); err != nil {
		return err
	}

	wealths := make([]float64, 0, len(res.FinalWealth))
	for _, b := range res.FinalWealth {
		wealths = append(wealths, float64(b))
	}
	sort.Float64s(wealths)
	tab := trace.Table{Header: []string{"percentile", "wealth"}}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		idx := int(q*float64(len(wealths))) - 1
		if idx < 0 {
			idx = 0
		}
		tab.AddFloats(fmt.Sprintf("p%.0f", q*100), wealths[idx])
	}
	fmt.Println()
	return tab.Write(os.Stdout)
}
