package experiments

import (
	"fmt"
	"io"

	"creditp2p/internal/credit"
	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
	"creditp2p/internal/trace"
	"creditp2p/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "fig3",
		Title: "Stabilized Gini index vs average wealth c across network sizes",
		Paper: "Fig. 3: after long evolution, the wealth Gini grows with c (asymmetric utilization, as any real protocol exhibits); allocating more initial credits raises condensation risk.",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Credit distribution in the earlier stage (not yet converged)",
		Paper: "Fig. 5: sorted credit queue lengths during 0-50% of the horizon spread apart as the system leaves the all-equal start.",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Credit distribution in the later stage (converged)",
		Paper: "Fig. 6: sorted credit queue lengths during 50-100% of the horizon largely overlap: the equilibrium of Sec. IV is reached.",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Gini evolution under (near-)symmetric utilization",
		Paper: "Fig. 7: Gini converges for every c; larger average wealth stabilizes at a larger Gini.",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Gini evolution under asymmetric utilization",
		Paper: "Fig. 8: with asymmetric utilization the stable state is reachable and skewer; larger c condenses more.",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Taxation: rates x thresholds vs no taxation",
		Paper: "Fig. 9: taxation inhibits skewness; thresholds near the average wealth work; raising the rate helps little when the threshold is too low.",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Fixed vs dynamic (wealth-coupled) spending rates",
		Paper: "Fig. 10: letting peers spend faster when rich stabilizes at a lower Gini than fixed rates.",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Peer dynamics: churned (open) vs static markets",
		Paper: "Fig. 11: churn lowers the Gini vs static; arrival rate has little effect; longer lifespans let the rich get richer.",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "inflation",
		Title: "Extension: periodic credit injection (the intro's 'temporary remedy')",
		Paper: "Sec. I: injecting new credits postpones bankruptcy but inflates the supply; the average wealth c grows past the threshold and condensation deepens.",
		Run:   runInflation,
	})
}

func runInflation(p Preset, w io.Writer) error {
	s := scaleOf(p)
	injections := []int64{0, 1, 4}
	results, err := parMap(len(injections), func(i int) (*market.Result, error) {
		cfg, err := asymmetricConfig(s, 20, 808)
		if err != nil {
			return nil, err
		}
		if injections[i] > 0 {
			inj, err := policy.NewInjection(injections[i])
			if err != nil {
				return nil, err
			}
			cfg.Policies = []policy.Policy{inj}
			cfg.PolicyEpoch = s.horizon / 40
		}
		return market.Run(cfg)
	})
	if err != nil {
		return err
	}
	tab := trace.Table{Header: []string{"injection", "final supply", "stabilized gini", "top-1% wealth"}}
	var set trace.Set
	for i, res := range results {
		name := "none"
		if injections[i] > 0 {
			name = fmt.Sprintf("%d credits/peer every %s s", injections[i], trace.FormatFloat(s.horizon/40))
		}
		var top int64
		for _, b := range res.FinalWealth {
			if b > top {
				top = b
			}
		}
		res.Gini.Name = "inject=" + name
		set.Add(res.Gini)
		tab.AddRow("inject="+name,
			trace.FormatFloat(res.Supply.Last()),
			trace.FormatFloat(res.Gini.Tail(s.tailK)),
			trace.FormatFloat(float64(top)))
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nInjection keeps the poor solvent (nominal Gini dips) but the supply")
	fmt.Fprintln(w, "inflates and the top peers absorb the new credits in absolute terms.")
	return giniChart(w, &set)
}

// marketScale bundles the preset-dependent sizes shared by the market
// experiments.
type marketScale struct {
	n       int
	degree  int
	horizon float64
	sample  float64
	tailK   int
	// uniformIncomeMu builds asymmetric mu maps through the O(n)
	// uniform-income shortcut instead of the dense Lemma 1 solve; valid on
	// the regular overlays these experiments use and required above ~10k
	// peers.
	uniformIncomeMu bool
}

func scaleOf(p Preset) marketScale {
	switch p {
	case Full:
		return marketScale{n: 1000, degree: 20, horizon: 40000, sample: 500, tailK: 16}
	case Large:
		return marketScale{
			n: 100_000, degree: 20, horizon: 400, sample: 10, tailK: 10,
			uniformIncomeMu: true,
		}
	case XLarge:
		return marketScale{
			n: 1_000_000, degree: 20, horizon: 40, sample: 2, tailK: 5,
			uniformIncomeMu: true,
		}
	default:
		return marketScale{n: 120, degree: 12, horizon: 4000, sample: 100, tailK: 10}
	}
}

func regularOverlay(n, d int, seed int64) (*topology.Graph, error) {
	return topology.RandomRegular(n, d, xrand.New(seed))
}

// asymmetricConfig prepares the Sec. VI asymmetric-utilization market: a
// regular overlay (uniform income) with target utilizations drawn uniformly
// from [0.25, 1] realized through per-peer spending rates.
func asymmetricConfig(s marketScale, wealth int64, seed int64) (market.Config, error) {
	return asymmetricConfigLo(s, wealth, seed, 0.25)
}

// asymmetricConfigLo draws target utilizations from [lo, 1]; higher lo is a
// milder asymmetry whose condensation saturates at larger c.
func asymmetricConfigLo(s marketScale, wealth int64, seed int64, lo float64) (market.Config, error) {
	g, err := regularOverlay(s.n, s.degree, seed)
	if err != nil {
		return market.Config{}, err
	}
	targetU, err := market.UniformUtilizations(g, lo, xrand.New(seed+1))
	if err != nil {
		return market.Config{}, err
	}
	var mu map[int]float64
	if s.uniformIncomeMu {
		mu, err = market.MuForUtilizationUniformIncome(g, targetU, 1)
	} else {
		mu, err = market.MuForUtilization(g, market.RouteUniform, targetU, 1)
	}
	if err != nil {
		return market.Config{}, err
	}
	return market.Config{
		Graph:         g,
		InitialWealth: wealth,
		DefaultMu:     1,
		BaseMu:        mu,
		Horizon:       s.horizon,
		SampleEvery:   s.sample,
		Seed:          seed + 2,
	}, nil
}

func symmetricConfig(s marketScale, wealth int64, seed int64) (market.Config, error) {
	g, err := regularOverlay(s.n, s.degree, seed)
	if err != nil {
		return market.Config{}, err
	}
	return market.Config{
		Graph:         g,
		InitialWealth: wealth,
		DefaultMu:     1,
		Horizon:       s.horizon,
		SampleEvery:   s.sample,
		Seed:          seed + 2,
	}, nil
}

func giniChart(w io.Writer, set *trace.Set) error {
	fmt.Fprintln(w, "\nGini index over time:")
	return trace.Chart{Width: 64, Height: 14, YMax: 1}.Render(w, set)
}

func runFig3(p Preset, w io.Writer) error {
	s := scaleOf(p)
	sizes := []int{50, 100, 200}
	if p == Full {
		sizes = []int{50, 100, 200, 400}
	}
	wealths := []int64{5, 10, 25, 50, 100}
	tab := trace.Table{Header: append([]string{"c"}, func() []string {
		h := make([]string, len(sizes))
		for i, n := range sizes {
			h[i] = fmt.Sprintf("N=%d", n)
		}
		return h
	}()...)}
	// Fan the (c, N) grid across the worker pool: every point is an
	// independent seeded simulation.
	ginis, err := parMap(len(wealths)*len(sizes), func(k int) (float64, error) {
		c, n := wealths[k/len(sizes)], sizes[k%len(sizes)]
		// One fixed utilization draw per N so the c-sweep varies only
		// the credit supply. Larger c mixes slower, so the horizon
		// scales with c to let every point reach its equilibrium.
		horizon := s.horizon
		if h := float64(c) * s.horizon / 40; h > horizon {
			horizon = h
		}
		sc := s
		sc.n, sc.horizon, sc.sample = n, horizon, horizon/40
		cfg, err := asymmetricConfig(sc, c, int64(n)*7)
		if err != nil {
			return 0, err
		}
		res, err := market.Run(cfg)
		if err != nil {
			return 0, err
		}
		return res.Gini.Tail(s.tailK), nil
	})
	if err != nil {
		return err
	}
	for i, c := range wealths {
		tab.AddFloats(trace.FormatFloat(float64(c)), ginis[i*len(sizes):(i+1)*len(sizes)]...)
	}
	return tab.Write(w)
}

func snapshotExperiment(p Preset, w io.Writer, late bool) error {
	s := scaleOf(p)
	// Low average wealth makes the sorted queue-length curves look like the
	// paper's Figs. 5-6 (lengths of a few credits).
	cfg, err := symmetricConfig(s, 3, 99)
	if err != nil {
		return err
	}
	var times []float64
	if late {
		for _, f := range []float64{0.5, 0.625, 0.75, 0.875, 1.0} {
			times = append(times, f*s.horizon)
		}
	} else {
		// The paper's early stage: snapshots while the distribution still
		// steepens away from the all-equal start.
		for _, f := range []float64{0.002, 0.005, 0.012, 0.03, 0.08} {
			times = append(times, f*s.horizon)
		}
	}
	cfg.SnapshotTimes = times
	res, err := market.Run(cfg)
	if err != nil {
		return err
	}
	tab := trace.Table{Header: []string{"t", "p10", "p25", "p50", "p75", "p90", "max"}}
	var set trace.Set
	for _, snap := range res.Snapshots {
		q := func(f float64) float64 { return snap.Sorted[int(f*float64(len(snap.Sorted)-1))] }
		tab.AddFloats(trace.FormatFloat(snap.Time), q(0.10), q(0.25), q(0.50), q(0.75), q(0.90), q(1))
		series := trace.NewSeries(fmt.Sprintf("t=%s", trace.FormatFloat(snap.Time)))
		for i, v := range snap.Sorted {
			series.Add(float64(i), v)
		}
		set.Add(series)
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nSorted credit queue lengths (x: peer rank, y: credits):")
	return trace.Chart{Width: 64, Height: 14}.Render(w, &set)
}

func runFig5(p Preset, w io.Writer) error { return snapshotExperiment(p, w, false) }

func runFig6(p Preset, w io.Writer) error { return snapshotExperiment(p, w, true) }

func giniEvolution(p Preset, w io.Writer, asymmetric bool) error {
	s := scaleOf(p)
	wealths := []int64{50, 100, 200}
	results, err := parMap(len(wealths), func(i int) (*market.Result, error) {
		c := wealths[i]
		// Richer markets mix more slowly; give every c enough horizon to
		// stabilize (the paper runs 40 000 s for the same reason).
		sc := s
		if h := float64(c) * s.horizon / 50; h > sc.horizon {
			sc.horizon = h
			sc.sample = h / 40
		}
		var cfg market.Config
		var err error
		if asymmetric {
			// Mild asymmetry (u in [0.6, 1]) keeps the c-ordering visible;
			// stronger spreads saturate below c=50 (see fig3).
			cfg, err = asymmetricConfigLo(sc, c, 300+c, 0.6)
		} else {
			cfg, err = symmetricConfig(sc, c, 300+c)
		}
		if err != nil {
			return nil, err
		}
		return market.Run(cfg)
	})
	if err != nil {
		return err
	}
	var set trace.Set
	tab := trace.Table{Header: []string{"c", "stabilized gini"}}
	for i, res := range results {
		res.Gini.Name = fmt.Sprintf("c=%d", wealths[i])
		set.Add(res.Gini)
		tab.AddFloats(res.Gini.Name, res.Gini.Tail(s.tailK))
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	return giniChart(w, &set)
}

func runFig7(p Preset, w io.Writer) error { return giniEvolution(p, w, false) }

func runFig8(p Preset, w io.Writer) error { return giniEvolution(p, w, true) }

func runFig9(p Preset, w io.Writer) error {
	s := scaleOf(p)
	const c = 100
	cases := []struct {
		name      string
		rate      float64
		threshold int64
	}{
		{"no taxation", 0, 0},
		{"rate=0.1 thres.=50", 0.1, 50},
		{"rate=0.2 thres.=50", 0.2, 50},
		{"rate=0.1 thres.=80", 0.1, 80},
		{"rate=0.2 thres.=80", 0.2, 80},
	}
	results, err := parMap(len(cases), func(i int) (*market.Result, error) {
		cfg, err := asymmetricConfig(s, c, 412)
		if err != nil {
			return nil, err
		}
		if cases[i].rate > 0 {
			tax, err := policy.NewIncomeTax(cases[i].rate, cases[i].threshold)
			if err != nil {
				return nil, err
			}
			cfg.Policies = []policy.Policy{tax, policy.NewRedistribute()}
		}
		return market.Run(cfg)
	})
	if err != nil {
		return err
	}
	var set trace.Set
	tab := trace.Table{Header: []string{"policy", "stabilized gini", "collected", "redistributed"}}
	for i, res := range results {
		res.Gini.Name = cases[i].name
		set.Add(res.Gini)
		tab.AddRow(cases[i].name,
			trace.FormatFloat(res.Gini.Tail(s.tailK)),
			fmt.Sprintf("%d", res.TaxCollected),
			fmt.Sprintf("%d", res.TaxRedistributed))
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	return giniChart(w, &set)
}

func runFig10(p Preset, w io.Writer) error {
	s := scaleOf(p)
	const c = 100
	names := []string{"without adjustment", "with adjustment"}
	results, err := parMap(len(names), func(i int) (*market.Result, error) {
		cfg, err := asymmetricConfig(s, c, 512)
		if err != nil {
			return nil, err
		}
		if i == 1 {
			cfg.Spending = credit.DynamicSpending{M: c}
		}
		return market.Run(cfg)
	})
	if err != nil {
		return err
	}
	var set trace.Set
	tab := trace.Table{Header: []string{"spending policy", "stabilized gini"}}
	for i, res := range results {
		res.Gini.Name = names[i]
		set.Add(res.Gini)
		tab.AddFloats(names[i], res.Gini.Tail(s.tailK))
	}
	if err := tab.Write(w); err != nil {
		return err
	}
	return giniChart(w, &set)
}

func runFig11(p Preset, w io.Writer) error {
	s := scaleOf(p)
	// The paper's three panels, rescaled so the steady population matches
	// the static overlay size: population = arrival rate x mean lifespan.
	popScale := float64(s.n) / 1000.0
	horizon := s.horizon / 5 // churn panels use a shorter horizon (Fig. 11 runs to 8000 s)
	type cfg struct {
		name     string
		arrival  float64 // peers/s at paper scale
		lifespan float64
		static   bool
	}
	panels := []struct {
		title string
		runs  []cfg
	}{
		{"panel 1: fixed overlay size", []cfg{
			{"lifespan=1000s, arr=1/s", 1, 1000, false},
			{"lifespan=500s, arr=2/s", 2, 500, false},
			{"static topology", 0, 0, true},
		}},
		{"panel 2: fixed mean lifespan", []cfg{
			{"lifespan=500s, arr=4/s", 4, 500, false},
			{"lifespan=500s, arr=2/s", 2, 500, false},
			{"lifespan=500s, arr=1/s", 1, 500, false},
		}},
		{"panel 3: fixed arrival rate", []cfg{
			{"lifespan=2000s, arr=1/s", 1, 2000, false},
			{"lifespan=1000s, arr=1/s", 1, 1000, false},
			{"lifespan=500s, arr=1/s", 1, 500, false},
		}},
	}
	const c = 100
	// Flatten every panel's runs into one fan-out; render panel by panel
	// afterwards so the output order is unchanged.
	type item struct{ panel, run int }
	var items []item
	for pi, panel := range panels {
		for ri := range panel.runs {
			items = append(items, item{pi, ri})
		}
	}
	results, err := parMap(len(items), func(k int) (*market.Result, error) {
		r := panels[items[k].panel].runs[items[k].run]
		sc := s
		sc.horizon, sc.sample = horizon, horizon/40
		mcfg, err := asymmetricConfig(sc, c, 600+int64(items[k].run))
		if err != nil {
			return nil, err
		}
		if !r.static {
			mcfg.Churn = &market.ChurnConfig{
				ArrivalRate:  r.arrival * popScale,
				MeanLifespan: r.lifespan,
				AttachDegree: s.degree,
				Preferential: false,
			}
			// Joining peers draw a fresh random utilization via mu.
			mcfg.JoinMu = func(rng *xrand.RNG) float64 {
				u := 0.25 + 0.75*rng.Float64()
				return 1 / u
			}
		}
		return market.Run(mcfg)
	})
	if err != nil {
		return err
	}
	k := 0
	for _, panel := range panels {
		fmt.Fprintf(w, "\n%s\n", panel.title)
		tab := trace.Table{Header: []string{"setting", "stabilized gini", "joins", "departures", "steady pop"}}
		var set trace.Set
		for _, r := range panel.runs {
			res := results[k]
			k++
			res.Gini.Name = r.name
			set.Add(res.Gini)
			tab.AddRow(r.name,
				trace.FormatFloat(res.Gini.Tail(8)),
				fmt.Sprintf("%d", res.Joins),
				fmt.Sprintf("%d", res.Departures),
				trace.FormatFloat(res.Population.Tail(8)))
		}
		if err := tab.Write(w); err != nil {
			return err
		}
		if err := giniChart(w, &set); err != nil {
			return err
		}
	}
	return nil
}
