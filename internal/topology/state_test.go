package topology

import (
	"slices"
	"strings"
	"testing"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/xrand"
)

// churned returns a 12-node 3-regular overlay after one departure, so its
// slab holds a free slot and a non-empty free list.
func churned(t *testing.T) *Graph {
	t.Helper()
	g, err := RandomRegular(12, 3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	return g
}

// reload serializes g and decodes it into a fresh graph.
func reload(g *Graph) (*Graph, error) {
	w := snapshot.NewWriter(0)
	g.SaveState(w)
	r, err := snapshot.Open(w.Finish())
	if err != nil {
		return nil, err
	}
	out := NewGraph()
	if err := out.LoadState(r, 64); err != nil {
		return nil, err
	}
	return out, r.Close()
}

// TestLoadStateRefusesCraftedGraph crafts decoded graphs that break one
// invariant the mutations keep, and requires LoadState to refuse each
// instead of handing back a graph whose next RemoveNode or AddEdge
// indexes out of range. The untouched graph round-trips.
func TestLoadStateRefusesCraftedGraph(t *testing.T) {
	got, err := reload(churned(t))
	if err != nil {
		t.Fatalf("untouched graph refused: %v", err)
	}
	want := churned(t)
	if !slices.Equal(got.Nodes(), want.Nodes()) || got.NumEdges() != want.NumEdges() {
		t.Fatalf("round trip: %d nodes %d edges, want %d and %d", got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for _, id := range want.Nodes() {
		if !slices.Equal(got.NeighborsView(id), want.NeighborsView(id)) {
			t.Fatalf("round trip: node %d's row differs", id)
		}
	}

	// edit replaces node id's neighbour row with what f makes of a copy.
	edit := func(g *Graph, id int, f func([]int32) []int32) {
		nd := &g.nodes[g.slotOf(id)]
		nd.nbrs = f(append([]int32(nil), nd.nbrs...))
	}
	// stranger is a present node that is neither 0 nor one of 0's
	// neighbours.
	stranger := int32(-1)
	for _, id := range want.Nodes() {
		if id != 0 && !want.HasEdge(0, id) {
			stranger = int32(id)
			break
		}
	}
	cases := []struct {
		name, want string
		craft      func(g *Graph)
	}{
		{"self-loop", "itself or absent", func(g *Graph) {
			edit(g, 0, func(r []int32) []int32 { return append([]int32{0}, r...) })
		}},
		{"absent neighbour", "itself or absent", func(g *Graph) {
			edit(g, 0, func(r []int32) []int32 { r = append(r, 4); slices.Sort(r); return r })
		}},
		{"one-way edge", "does not list it back", func(g *Graph) {
			edit(g, 0, func(r []int32) []int32 { r = append(r, stranger); slices.Sort(r); return r })
		}},
		{"unsorted row", "not strictly ascending", func(g *Graph) {
			edit(g, 0, func(r []int32) []int32 { r[0], r[1] = r[1], r[0]; return r })
		}},
		{"duplicate id", "duplicated", func(g *Graph) { g.nodes[g.slotOf(1)].id = 0 }},
		{"id at the next id", "not below the next id", func(g *Graph) { g.nextID = 11 }},
		{"edge counter", "counters say", func(g *Graph) { g.edges++ }},
		{"free slot with neighbours", "free slot", func(g *Graph) { g.nodes[g.free[0]].nbrs = []int32{1} }},
		{"free list too long", "free list holds", func(g *Graph) { g.free = append(g.free, g.free[0]) }},
		{"free list names a node", "not a distinct free slot", func(g *Graph) { g.free[0] = g.slotOf(0) }},
	}
	for _, c := range cases {
		g := churned(t)
		c.craft(g)
		if _, err := reload(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
