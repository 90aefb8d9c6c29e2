package topology

import (
	"errors"
	"math"
	"sort"
	"testing"

	"creditp2p/internal/xrand"
)

func newPath(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i-1, i); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddRemoveNode(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(3); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate add error = %v, want ErrNodeExists", err)
	}
	if !g.HasNode(3) || g.NumNodes() != 1 {
		t.Error("node not present after add")
	}
	if err := g.RemoveNode(3); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(3); !errors.Is(err, ErrNoNode) {
		t.Errorf("double remove error = %v, want ErrNoNode", err)
	}
	if g.NumNodes() != 0 {
		t.Error("node present after remove")
	}
}

func TestRemoveNodeDetachesEdges(t *testing.T) {
	g := newPath(t, 3) // 0-1-2
	if err := g.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d after removing middle node, want 0", g.NumEdges())
	}
	if g.Degree(0) != 0 || g.Degree(2) != 0 {
		t.Error("stale incident edges after node removal")
	}
}

func TestEdgeOperations(t *testing.T) {
	g := newPath(t, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 99); !errors.Is(err, ErrNoNode) {
		t.Errorf("edge to absent node error = %v", err)
	}
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.NumEdges() != 0 {
		t.Error("edge present after removal")
	}
	if err := g.RemoveEdge(0, 1); err == nil {
		t.Error("removing absent edge succeeded")
	}
}

func TestNeighborsSortedCopy(t *testing.T) {
	g := NewGraph()
	for _, id := range []int{5, 1, 9} {
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(5, 9); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(5, 1); err != nil {
		t.Fatal(err)
	}
	nbrs := g.Neighbors(5)
	if len(nbrs) != 2 || nbrs[0] != 1 || nbrs[1] != 9 {
		t.Errorf("Neighbors(5) = %v, want [1 9]", nbrs)
	}
	nbrs[0] = 42 // must not alias internal state
	if g.Neighbors(5)[0] != 1 {
		t.Error("Neighbors returned aliased storage")
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := newPath(t, 3)
	for i := 10; i < 12; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(10, 11); err != nil {
		t.Fatal(err)
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v, want 2 components", comps)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	r := xrand.New(1)
	if err := EnsureConnected(g, r); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Error("EnsureConnected left graph disconnected")
	}
}

// TestIsConnectedMatchesComponents checks IsConnected's slot walk against
// Components on churned graphs, whose free slots (slot 0 included) the walk
// must skip when it picks its start.
func TestIsConnectedMatchesComponents(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 50; trial++ {
		g, err := ErdosRenyi(30, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 1 + r.Intn(29), 1 + r.Intn(29)} {
			if err := g.RemoveNode(id); err != nil && !errors.Is(err, ErrNoNode) {
				t.Fatal(err)
			}
		}
		// An attachment with m=0 leaves an isolated peer.
		if err := AttachRandom(g, g.NewNodeID(), r.Intn(3), r); err != nil {
			t.Fatal(err)
		}
		if got, want := g.IsConnected(), len(g.Components()) == 1; got != want {
			t.Fatalf("trial %d: IsConnected = %v, Components gives %d", trial, got, len(g.Components()))
		}
	}
}

func TestMeanDegreeAndSequence(t *testing.T) {
	g := newPath(t, 4) // degrees 1,2,2,1
	if md := g.MeanDegree(); md != 1.5 {
		t.Errorf("MeanDegree = %v, want 1.5", md)
	}
	seq := g.DegreeSequence()
	want := []int{2, 2, 1, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Errorf("DegreeSequence = %v, want %v", seq, want)
			break
		}
	}
}

func TestNewNodeIDMonotone(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(7); err != nil {
		t.Fatal(err)
	}
	id := g.NewNodeID()
	if id <= 7 {
		t.Errorf("NewNodeID = %d, want > 7", id)
	}
	if id2 := g.NewNodeID(); id2 <= id {
		t.Errorf("NewNodeID not monotone: %d then %d", id, id2)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := newPath(t, 3)
	c := g.Clone()
	if err := c.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	if !g.HasNode(1) || g.NumEdges() != 2 {
		t.Error("mutating clone affected original")
	}
}

func TestBadIDRejected(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(-1); !errors.Is(err, ErrBadID) {
		t.Errorf("AddNode(-1) error = %v, want ErrBadID", err)
	}
	big := []int{math.MaxInt32} // the first id past maxID
	if n, ok := idsPast31Bits(); ok {
		big = append(big, n<<9) // 2^40
	}
	for _, id := range big {
		if err := g.AddNode(id); !errors.Is(err, ErrBadID) {
			t.Errorf("AddNode(%d) error = %v, want ErrBadID", id, err)
		}
	}
	if g.HasNode(-1) || g.Degree(-1) != 0 || g.HasEdge(-1, 0) {
		t.Error("negative id queries not inert")
	}
	if nbrs := g.Neighbors(-1); len(nbrs) != 0 {
		t.Errorf("Neighbors(-1) = %v, want empty", nbrs)
	}
}

func TestSlotReuseAfterChurn(t *testing.T) {
	// Remove/re-add cycles must recycle slots: the node slab should not
	// grow beyond the peak live population, and adjacency must stay exact.
	g := newPath(t, 4)
	for round := 0; round < 100; round++ {
		id := round % 4
		if err := g.RemoveNode(id); err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
		for _, nb := range []int{(id + 1) % 4, (id + 3) % 4} {
			if err := g.AddEdge(id, nb); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(g.nodes) > 5 {
		t.Errorf("node slab grew to %d slots for 4 live nodes", len(g.nodes))
	}
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	var degSum int
	for _, id := range g.Nodes() {
		degSum += g.Degree(id)
	}
	if degSum != 2*g.NumEdges() {
		t.Errorf("degree sum %d != 2*edges %d after churn", degSum, 2*g.NumEdges())
	}
}

func TestChurnWithFreshIDsKeepsIterationsLive(t *testing.T) {
	// Open-network churn: every arrival takes a fresh monotone id, every
	// departure frees a slot. Whole-graph iterations must reflect exactly
	// the live population (and run over the recycled slab, not the
	// ever-growing id space).
	g := newPath(t, 4)
	r := xrand.New(9)
	live := []int{0, 1, 2, 3}
	for round := 0; round < 3000; round++ {
		victim := r.Intn(len(live))
		if err := g.RemoveNode(live[victim]); err != nil {
			t.Fatal(err)
		}
		live[victim] = live[len(live)-1]
		live = live[:len(live)-1]
		id := g.NewNodeID()
		if err := AttachRandom(g, id, 2, r); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	if len(g.nodes) > 6 {
		t.Errorf("node slab grew to %d slots for 4 live nodes", len(g.nodes))
	}
	want := append([]int(nil), live...)
	sort.Ints(want)
	got := g.Nodes()
	if len(got) != len(want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
	if ds := g.DegreeSequence(); len(ds) != 4 {
		t.Errorf("DegreeSequence has %d entries, want 4", len(ds))
	}
	var total int
	for _, comp := range g.Components() {
		total += len(comp)
	}
	if total != 4 {
		t.Errorf("Components cover %d nodes, want 4", total)
	}
}

func TestAppendNeighborsSortedNoAlloc(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 32; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	r := xrand.New(5)
	for e := 0; e < 120; e++ {
		a, b := r.Intn(32), r.Intn(32)
		if a != b && !g.HasEdge(a, b) {
			if err := g.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]int, 0, 64)
	avg := testing.AllocsPerRun(50, func() {
		for id := 0; id < 32; id++ {
			buf = g.AppendNeighbors(buf[:0], id)
			for i := 1; i < len(buf); i++ {
				if buf[i-1] >= buf[i] {
					t.Fatalf("neighbors of %d not strictly ascending: %v", id, buf)
				}
			}
		}
	})
	if avg != 0 {
		t.Errorf("AppendNeighbors allocated %v times per sweep, want 0", avg)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewGraph()
	if !g.IsConnected() {
		t.Error("empty graph should be trivially connected")
	}
	if g.MeanDegree() != 0 {
		t.Error("empty graph mean degree should be 0")
	}
	if len(g.Components()) != 0 {
		t.Error("empty graph should have no components")
	}
}
