package topology

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"creditp2p/internal/xrand"
)

// referencePartition is the row-by-row copy NewPartition made before it
// read the graph's arena: it copies every row of g into fresh CSR arrays
// and counts each shard's cross edges through ShardOf, edge by edge.
func referencePartition(t *testing.T, g *Graph, p int) (offs []int64, nbrs []int32, cross []int64) {
	t.Helper()
	n := g.NumNodes()
	pt := &Partition{n: n, p: p, block: max((n+p-1)/p, 1)}
	pt.blockMul, pt.blockShift = blockMagic(pt.block)
	offs = make([]int64, n+1)
	cross = make([]int64, p)
	for i := 0; i < n; i++ {
		if !g.HasNode(i) {
			t.Fatalf("reference partition: id %d is absent", i)
		}
		offs[i+1] = offs[i] + int64(g.Degree(i))
	}
	nbrs = make([]int32, offs[n])
	for i := 0; i < n; i++ {
		row := g.NeighborsView(i)
		copy(nbrs[offs[i]:offs[i+1]], row)
		s := pt.ShardOf(int32(i))
		for _, nb := range row {
			if pt.ShardOf(nb) != s {
				cross[s]++
			}
		}
	}
	return offs, nbrs, cross
}

// requireReference checks pt against the row-by-row copy of g.
func requireReference(t *testing.T, label string, g *Graph, pt *Partition) {
	t.Helper()
	offs, nbrs, cross := referencePartition(t, g, pt.Shards())
	if pt.N() != g.NumNodes() || !slices.Equal(pt.offs, offs) || !slices.Equal(pt.nbrs, nbrs) || !slices.Equal(pt.cross, cross) {
		t.Fatalf("%s: partition differs from the row-by-row copy (n %d/%d, %d/%d entries, cross %v/%v)",
			label, pt.N(), g.NumNodes(), len(pt.nbrs), len(nbrs), pt.cross, cross)
	}
}

// edgeBuilt returns a graph built only by AddNode and AddEdge: a random
// sparse graph plus a path, so it is connected and has no arena.
func edgeBuilt(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	r := xrand.New(seed)
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := g.AddEdge(i-1, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < 3*n; k++ {
		a, b := r.Intn(n), r.Intn(n)
		if a != b && !g.HasEdge(a, b) {
			if err := g.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g.arena != nil {
		t.Fatal("a graph built by AddEdge has an arena before it is partitioned")
	}
	return g
}

// allocBytes returns the bytes f allocates per call, averaged over 50
// calls so that a stray allocation elsewhere in the process does not
// count against f.
func allocBytes(f func()) uint64 {
	const runs = 50
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / runs
}

// TestPartitionSharesArena checks that a partition of a generated graph
// reads the generator's arena: every row is the graph's own row, not a
// copy, and NewPartition allocates O(P) — the cross counts and the
// partition header — not O(E).
func TestPartitionSharesArena(t *testing.T) {
	g, err := ScaleFree(ScaleFreeConfig{N: 20_000, Alpha: 2.5, MeanDegree: 20, MaxDegree: 2000}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.arena == nil {
		t.Fatal("ScaleFree returned a graph without an arena")
	}
	edgeBytes := uint64(2*g.NumEdges()) * 4
	for _, p := range []int{1, 2, 8} {
		pt, err := NewPartition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := allocBytes(func() { NewPartition(g, p) }); got > 1024 {
			t.Errorf("P=%d: NewPartition allocated %d B, want at most 1024 (the arena is %d B)", p, got, edgeBytes)
		}
		for i := 0; i < g.NumNodes(); i++ {
			if row := g.NeighborsView(i); len(row) > 0 && unsafe.SliceData(row) != unsafe.SliceData(pt.Neighbors(int32(i))) {
				t.Fatalf("P=%d: peer %d's partition row is a copy of the graph's row", p, i)
			}
		}
		requireReference(t, fmt.Sprintf("P=%d", p), g, pt)
	}
}

// TestPartitionOfEdgeBuiltGraph checks that a graph with no arena is
// compacted into one on its first partition, which then equals the
// row-by-row copy, and that the next partition shares it.
func TestPartitionOfEdgeBuiltGraph(t *testing.T) {
	for _, n := range []int{1, 2, 97, 1000} {
		g := edgeBuilt(t, n, int64(n))
		for _, p := range []int{1, 2, 3, 7} {
			pt, err := NewPartition(g, p)
			if err != nil {
				t.Fatal(err)
			}
			requireReference(t, fmt.Sprintf("n=%d P=%d", n, p), g, pt)
			if got := allocBytes(func() { NewPartition(g, p) }); got > 1024 {
				t.Errorf("n=%d P=%d: a later partition allocated %d B, want it to share the first one's arena", n, p, got)
			}
		}
	}
	// Ring, Complete and ErdosRenyi build edge by edge too.
	r := xrand.New(3)
	ring, err := Ring(300, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := Complete(40)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(400, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"ring": ring, "complete": complete, "erdos-renyi": er} {
		for _, p := range []int{1, 4} {
			pt, err := NewPartition(g, p)
			if err != nil {
				t.Fatal(err)
			}
			requireReference(t, fmt.Sprintf("%s P=%d", name, p), g, pt)
		}
	}
}

// TestPartitionIgnoresLaterMutation checks that every mutator leaves an
// existing partition's rows as they were, while a partition made after
// the mutation shows it. It runs on a generated graph (the generator's
// arena) and on an edge-built one (the arena its first partition made).
func TestPartitionIgnoresLaterMutation(t *testing.T) {
	mutations := []struct {
		name string
		do   func(g *Graph) error
	}{
		{"AddNode", func(g *Graph) error {
			id := g.NumNodes()
			if err := g.AddNode(id); err != nil {
				return err
			}
			return g.AddEdge(id, 0)
		}},
		{"AddEdge", func(g *Graph) error {
			for b := 2; b < g.NumNodes(); b++ {
				if !g.HasEdge(1, b) {
					return g.AddEdge(1, b)
				}
			}
			return fmt.Errorf("node 1 is linked to every node")
		}},
		{"RemoveEdge", func(g *Graph) error {
			return g.RemoveEdge(0, g.NeighborAt(0, 0))
		}},
		{"RemoveNode", func(g *Graph) error {
			return g.RemoveNode(g.NumNodes() - 1)
		}},
	}
	builds := []struct {
		name  string
		build func() *Graph
	}{
		{"generated", func() *Graph {
			g, err := ScaleFree(ScaleFreeConfig{N: 2000, Alpha: 2.5, MeanDegree: 10}, xrand.New(5))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"edge-built", func() *Graph { return edgeBuilt(t, 500, 9) }},
	}
	for _, b := range builds {
		for _, m := range mutations {
			t.Run(b.name+"/"+m.name, func(t *testing.T) {
				g := b.build()
				// Twice: the partition made after the first mutation must be
				// protected from the second in turn.
				var prev *Partition
				for round := 0; round < 2; round++ {
					pt, err := NewPartition(g, 3)
					if err != nil {
						t.Fatal(err)
					}
					requireReference(t, fmt.Sprintf("round %d", round), g, pt)
					if prev != nil && prev.N() == pt.N() && slices.Equal(prev.nbrs, pt.nbrs) {
						t.Fatalf("round %d: a partition made after the mutation does not show it", round)
					}
					offs, nbrs, cross := referencePartition(t, g, 3)
					if err := m.do(g); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(pt.offs, offs) || !slices.Equal(pt.nbrs, nbrs) || !slices.Equal(pt.cross, cross) {
						t.Fatalf("round %d: the mutation wrote into the rows of an existing partition", round)
					}
					prev = pt
				}
			})
		}
	}
}
