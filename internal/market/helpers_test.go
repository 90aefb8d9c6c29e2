package market

import (
	"math"
	"sort"
	"testing"

	"creditp2p/internal/policy"
	"creditp2p/internal/stats"
	"creditp2p/internal/xrand"
)

// taxStages builds the Sec. VI-C tax pipeline — IncomeTax collecting at
// rate above threshold, then Redistribute paying the pot back in whole
// rounds — followed by any extra stages.
func taxStages(t testing.TB, rate float64, threshold int64, extra ...policy.Policy) []policy.Policy {
	t.Helper()
	it, err := policy.NewIncomeTax(rate, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return append([]policy.Policy{it, policy.NewRedistribute()}, extra...)
}

// injection builds a periodic-injection stage minting amount credits per
// live peer every engine epoch.
func injection(t testing.TB, amount int64) *policy.Injection {
	t.Helper()
	in, err := policy.NewInjection(amount)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// exactSymmetricGini estimates the expected Gini of a uniform composition
// of m credits over n peers (the exact symmetric closed-network
// equilibrium) by direct sampling — used as ground truth in integration
// tests without importing queueing (avoiding heavyweight setup).
func exactSymmetricGini(t *testing.T, n, m, draws int) float64 {
	t.Helper()
	r := xrand.New(999)
	var sum float64
	for d := 0; d < draws; d++ {
		cuts := make([]int, 0, n-1)
		seen := make(map[int]bool, n-1)
		for len(cuts) < n-1 {
			v := r.Intn(m + n - 1)
			if !seen[v] {
				seen[v] = true
				cuts = append(cuts, v)
			}
		}
		sort.Ints(cuts)
		wealth := make([]float64, n)
		prev := -1
		for i, c := range cuts {
			wealth[i] = float64(c - prev - 1)
			prev = c
		}
		wealth[n-1] = float64(m + n - 2 - prev)
		g, err := stats.Gini(wealth)
		if err != nil {
			t.Fatal(err)
		}
		sum += g
	}
	return sum / float64(draws)
}

func TestUniformMuMap(t *testing.T) {
	g := regularGraph(t, 10, 4, 1)
	m := UniformMuMap(g, 2.5)
	if len(m) != 10 {
		t.Fatalf("map size = %d", len(m))
	}
	for id, mu := range m {
		if mu != 2.5 {
			t.Errorf("mu[%d] = %v", id, mu)
		}
	}
}

func TestLogNormalMuMap(t *testing.T) {
	g := regularGraph(t, 200, 4, 2)
	m := LogNormalMuMap(g, 1, 0.5, xrand.New(3))
	var logSum float64
	distinct := make(map[float64]bool)
	for _, mu := range m {
		if mu <= 0 {
			t.Fatalf("non-positive mu %v", mu)
		}
		logSum += math.Log(mu)
		distinct[mu] = true
	}
	// Median of base*LogNormal(0, s) is base: mean log ~ 0.
	if got := logSum / 200; math.Abs(got) > 0.15 {
		t.Errorf("mean log-mu = %v, want ~0", got)
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct rates, expected heterogeneity", len(distinct))
	}
}

func TestMuForUtilizationRealizesTarget(t *testing.T) {
	// On a regular overlay with uniform routing, lambda is uniform, so
	// mu_i must come out proportional to 1/u_i, with the max-u peer pinned
	// at richMu.
	g := regularGraph(t, 60, 6, 7)
	target, err := UniformUtilizations(g, 0.3, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	mu, err := MuForUtilization(g, RouteUniform, target, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id, u := range target {
		want := 2 / u // lambda uniform: mu = richMu * u_max/u with u_max=1
		if math.Abs(mu[id]-want) > 0.05*want {
			t.Errorf("mu[%d] = %v, want ~%v (u=%v)", id, mu[id], want, u)
		}
	}
}

func TestMuForUtilizationValidation(t *testing.T) {
	g := regularGraph(t, 10, 4, 9)
	target := UniformMuMap(g, 0.5) // reuse as a u map of 0.5s
	if _, err := MuForUtilization(nil, RouteUniform, target, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := MuForUtilization(g, RouteUniform, target, 0); err == nil {
		t.Error("zero richMu accepted")
	}
	bad := UniformMuMap(g, 1.5) // u > 1
	if _, err := MuForUtilization(g, RouteUniform, bad, 1); err == nil {
		t.Error("u > 1 accepted")
	}
	delete(target, g.Nodes()[0])
	if _, err := MuForUtilization(g, RouteUniform, target, 1); err == nil {
		t.Error("missing peer accepted")
	}
}

func TestBetaLikeUtilizations(t *testing.T) {
	g := regularGraph(t, 400, 4, 11)
	u, err := BetaLikeUtilizations(g, 2, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	var sum, max float64
	for _, v := range u {
		if v <= 0 || v > 1 {
			t.Fatalf("u = %v outside (0,1]", v)
		}
		sum += v
		if v > max {
			max = v
		}
	}
	if max != 1 {
		t.Errorf("max u = %v, want pinned at 1", max)
	}
	// Mean of f(w) = 3(1-w)^2 is 1/4.
	if mean := sum / 400; math.Abs(mean-0.25) > 0.05 {
		t.Errorf("mean u = %v, want ~0.25", mean)
	}
}

func TestAvailabilityRoutingPovertyTrap(t *testing.T) {
	// RouteAvailability couples income to recent purchases; with scarce
	// credits the market segregates into active and starved peers, pushing
	// the Gini far above the symmetric-uniform baseline.
	base := func(routing Routing) float64 {
		g := regularGraph(t, 80, 8, 13)
		res, err := Run(Config{
			Graph:         g,
			InitialWealth: 5,
			DefaultMu:     1,
			Routing:       routing,
			Horizon:       3000,
			Seed:          14,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Gini.Tail(10)
	}
	uniform := base(RouteUniform)
	avail := base(RouteAvailability)
	if avail <= uniform+0.1 {
		t.Errorf("availability-routed Gini %v not far above uniform %v", avail, uniform)
	}
}

func TestTwoClassMuMap(t *testing.T) {
	g := regularGraph(t, 300, 4, 4)
	m := TwoClassMuMap(g, 0.5, 2, 0.3, xrand.New(5))
	fast := 0
	for _, mu := range m {
		switch mu {
		case 2:
			fast++
		case 0.5:
		default:
			t.Fatalf("unexpected mu %v", mu)
		}
	}
	if fast < 50 || fast > 130 {
		t.Errorf("fast class size = %d/300, want ~90", fast)
	}
}
