package topology

import (
	"math"
	"testing"
	"testing/quick"

	"creditp2p/internal/xrand"
)

// checkSimple verifies the invariants every generated overlay must satisfy:
// a simple (no loops/multi-edges by construction), connected graph with a
// consistent edge count.
func checkSimple(t *testing.T, g *Graph, wantNodes int) {
	t.Helper()
	if g.NumNodes() != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", g.NumNodes(), wantNodes)
	}
	if !g.IsConnected() {
		t.Fatal("generated overlay not connected")
	}
	var degSum int
	for _, id := range g.Nodes() {
		degSum += g.Degree(id)
		for _, n := range g.Neighbors(id) {
			if n == id {
				t.Fatalf("self-loop at %d", id)
			}
			if !g.HasEdge(n, id) {
				t.Fatalf("asymmetric edge {%d,%d}", id, n)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("degree sum %d != 2*edges %d", degSum, 2*g.NumEdges())
	}
}

func TestScaleFreePaperConfig(t *testing.T) {
	r := xrand.New(42)
	g, err := ScaleFree(ScaleFreeConfig{N: 500, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 500)
	// Mean degree near 20 (stub losses and connectivity patching allow some
	// slack).
	if md := g.MeanDegree(); math.Abs(md-20) > 5 {
		t.Errorf("mean degree = %v, want ~20", md)
	}
	// Scale-free: max degree far above the mean.
	seq := g.DegreeSequence()
	if seq[0] < 40 {
		t.Errorf("max degree = %d, expected heavy tail above 40", seq[0])
	}
}

func TestScaleFreeHeavyTailVsRegular(t *testing.T) {
	r := xrand.New(7)
	sf, err := ScaleFree(ScaleFreeConfig{N: 400, Alpha: 2.5, MeanDegree: 12}, r)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RandomRegular(400, 12, r)
	if err != nil {
		t.Fatal(err)
	}
	// Degree variance of the scale-free overlay dominates the regular one.
	varOf := func(g *Graph) float64 {
		var sum, sumSq float64
		for _, id := range g.Nodes() {
			d := float64(g.Degree(id))
			sum += d
			sumSq += d * d
		}
		n := float64(g.NumNodes())
		mean := sum / n
		return sumSq/n - mean*mean
	}
	if varOf(sf) < 4*varOf(reg) {
		t.Errorf("scale-free degree variance %v not ≫ regular %v", varOf(sf), varOf(reg))
	}
}

func TestScaleFreeValidation(t *testing.T) {
	r := xrand.New(1)
	bad := []ScaleFreeConfig{
		{N: 1, Alpha: 2.5, MeanDegree: 1},
		{N: 10, Alpha: 0, MeanDegree: 3},
		{N: 10, Alpha: 2.5, MeanDegree: 0.5},
		{N: 10, Alpha: 2.5, MeanDegree: 50},
	}
	if n, ok := idsPast31Bits(); ok {
		bad = append(bad, ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 20})
	}
	for _, cfg := range bad {
		if _, err := ScaleFree(cfg, r); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	r := xrand.New(11)
	g, err := RandomRegular(200, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 200)
	// Most nodes should have exactly degree 8; stub retries may shave a few.
	exact := 0
	for _, id := range g.Nodes() {
		if g.Degree(id) == 8 {
			exact++
		}
	}
	if exact < 180 {
		t.Errorf("only %d/200 nodes have degree 8", exact)
	}
}

func TestRandomRegularOddProductRejected(t *testing.T) {
	r := xrand.New(1)
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Error("odd n*d accepted")
	}
	if n, ok := idsPast31Bits(); ok {
		if _, err := RandomRegular(n, 2, r); err == nil {
			t.Error("ids past 31 bits accepted")
		}
	}
}

// idsPast31Bits returns a population too large for 31-bit ids, and
// whether int can hold it: only a 64-bit int can.
func idsPast31Bits() (int, bool) {
	n := int64(math.MaxInt32) + 1
	return int(n), int64(int(n)) == n
}

func TestErdosRenyi(t *testing.T) {
	r := xrand.New(13)
	g, err := ErdosRenyi(300, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 300)
	if md := g.MeanDegree(); math.Abs(md-10) > 2 {
		t.Errorf("mean degree = %v, want ~10", md)
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 6)
	if g.NumEdges() != 15 {
		t.Errorf("K6 edges = %d, want 15", g.NumEdges())
	}
	for _, id := range g.Nodes() {
		if g.Degree(id) != 5 {
			t.Errorf("degree(%d) = %d, want 5", id, g.Degree(id))
		}
	}
}

func TestRing(t *testing.T) {
	r := xrand.New(1)
	g, err := Ring(10, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	checkSimple(t, g, 10)
	for _, id := range g.Nodes() {
		if g.Degree(id) != 4 {
			t.Errorf("ring degree(%d) = %d, want 4", id, g.Degree(id))
		}
	}
}

func TestAttachPreferentialFavorsHubs(t *testing.T) {
	r := xrand.New(23)
	// Star around node 0.
	g := NewGraph()
	for i := 0; i < 11; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 11; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	hubHits := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		id := g.NewNodeID()
		if err := AttachPreferential(g, id, 1, r); err != nil {
			t.Fatal(err)
		}
		if g.HasEdge(id, 0) {
			hubHits++
		}
		// Detach so every trial sees the same star: P(hub) = 11/31 ≈ 0.355.
		if err := g.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
	}
	// Uniform attachment would hit the hub ~18/200 times; preferential
	// should hit ~71. Split the difference generously.
	if hubHits < 45 {
		t.Errorf("hub attached %d/%d times, expected preferential bias", hubHits, trials)
	}
}

func TestAttachRandomDegreeCount(t *testing.T) {
	r := xrand.New(29)
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	id := g.NewNodeID()
	if err := AttachRandom(g, id, 3, r); err != nil {
		t.Fatal(err)
	}
	if g.Degree(id) != 3 {
		t.Errorf("attached degree = %d, want 3", g.Degree(id))
	}
	// Requesting more edges than candidates clamps.
	id2 := g.NewNodeID()
	if err := AttachRandom(g, id2, 100, r); err != nil {
		t.Fatal(err)
	}
	if g.Degree(id2) != 6 {
		t.Errorf("clamped degree = %d, want 6", g.Degree(id2))
	}
}

func TestGeneratorsProperty(t *testing.T) {
	// Property: all generators produce simple connected graphs across seeds.
	f := func(seed int64) bool {
		r := xrand.New(seed)
		g1, err := ScaleFree(ScaleFreeConfig{N: 60, Alpha: 2.5, MeanDegree: 6}, r)
		if err != nil || !g1.IsConnected() {
			return false
		}
		g2, err := RandomRegular(60, 4, r)
		if err != nil || !g2.IsConnected() {
			return false
		}
		g3, err := ErdosRenyi(60, 5, r)
		if err != nil || !g3.IsConnected() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sameGraph reports whether two graphs have identical node and edge sets.
func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, id := range a.Nodes() {
		if !b.HasNode(id) {
			return false
		}
		na, nb := a.Neighbors(id), b.Neighbors(id)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// TestGeneratorsDeterministic asserts same-seed generation yields identical
// graphs.
func TestGeneratorsDeterministic(t *testing.T) {
	gen := []struct {
		name string
		run  func(r *xrand.RNG) (*Graph, error)
	}{
		{"scale-free", func(r *xrand.RNG) (*Graph, error) {
			return ScaleFree(ScaleFreeConfig{N: 200, Alpha: 2.5, MeanDegree: 10}, r)
		}},
		{"regular", func(r *xrand.RNG) (*Graph, error) { return RandomRegular(200, 8, r) }},
	}
	for _, tc := range gen {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run(xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.run(xrand.New(99))
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(a, b) {
				t.Error("same-seed generation produced different graphs")
			}
		})
	}
}

// TestScaleFreeLarge is the scale smoke test: a 100k-node overlay must
// generate quickly and stay structurally sound.
func TestScaleFreeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large overlay generation")
	}
	r := xrand.New(3)
	g, err := ScaleFree(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100_000 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("large overlay not connected")
	}
	if md := g.MeanDegree(); math.Abs(md-20) > 5 {
		t.Errorf("mean degree = %v, want ~20", md)
	}
}

func BenchmarkScaleFree100k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := xrand.New(int64(i))
		if _, err := ScaleFree(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20}, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleFree100kCapped generates the overlay cmd/benchrun builds:
// hubs capped at 2000 neighbors.
func BenchmarkScaleFree100kCapped(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := xrand.New(int64(i))
		if _, err := ScaleFree(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20, MaxDegree: 2000}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaleFree1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := xrand.New(int64(i))
		if _, err := ScaleFree(ScaleFreeConfig{N: 1000, Alpha: 2.5, MeanDegree: 20}, r); err != nil {
			b.Fatal(err)
		}
	}
}
