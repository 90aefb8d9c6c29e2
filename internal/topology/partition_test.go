package topology

import (
	"testing"

	"creditp2p/internal/xrand"
)

// TestPartitionMirrorsGraph checks that every shard segment reproduces the
// graph's adjacency exactly and the shard ranges tile 0..N-1.
func TestPartitionMirrorsGraph(t *testing.T) {
	g, err := ScaleFree(ScaleFreeConfig{N: 500, MeanDegree: 8, Alpha: 2.5}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		pt, err := NewPartition(g, p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if pt.N() != g.NumNodes() || pt.Shards() != p {
			t.Fatalf("P=%d: dims %d/%d", p, pt.N(), pt.Shards())
		}
		covered := 0
		for s := 0; s < p; s++ {
			lo, hi := pt.Range(s)
			covered += int(hi - lo)
			for i := lo; i < hi; i++ {
				if pt.ShardOf(i) != s {
					t.Fatalf("P=%d: ShardOf(%d) = %d, want %d", p, i, pt.ShardOf(i), s)
				}
			}
		}
		if covered != pt.N() {
			t.Fatalf("P=%d: ranges cover %d of %d peers", p, covered, pt.N())
		}
		for i := 0; i < pt.N(); i++ {
			want := g.NeighborsView(i)
			got := pt.Neighbors(int32(i))
			if len(got) != len(want) || pt.Degree(int32(i)) != len(want) {
				t.Fatalf("P=%d peer %d: degree %d want %d", p, i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("P=%d peer %d: neighbor %d = %d want %d", p, i, k, got[k], want[k])
				}
			}
		}
	}
}

// TestPartitionCrossEdges checks the cross-edge index on a hand-built
// graph where the counts are known exactly.
func TestPartitionCrossEdges(t *testing.T) {
	// 4 nodes in a path 0-1-2-3; P=2 splits {0,1} | {2,3}; the only
	// crossing undirected edge is 1-2.
	g := NewGraph()
	for i := 0; i < 4; i++ {
		if err := g.AddNode(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	pt, err := NewPartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.CrossEdges(0) != 1 || pt.CrossEdges(1) != 1 {
		t.Fatalf("cross edges %d/%d, want 1/1", pt.CrossEdges(0), pt.CrossEdges(1))
	}
	if got := pt.CrossFraction(); got != 2.0/6.0 {
		t.Fatalf("cross fraction %v, want %v", got, 2.0/6.0)
	}
	// P=1: nothing crosses.
	whole, err := NewPartition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if whole.CrossEdges(0) != 0 || whole.CrossFraction() != 0 {
		t.Fatal("P=1 partition reports cross edges")
	}
}

// TestPartitionCrossMatchesBruteForce checks every shard's cross-edge count
// against a count that finds each peer's shard by scanning the shard
// ranges, on random graphs whose sizes do not divide evenly by P.
func TestPartitionCrossMatchesBruteForce(t *testing.T) {
	r := xrand.New(23)
	var graphs []*Graph
	for _, n := range []int{50, 301, 1000} {
		g, err := ScaleFree(ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 6}, r)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
		if g, err = ErdosRenyi(n, 4, r); err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for gi, g := range graphs {
		for _, p := range []int{1, 2, 3, 7} {
			pt, err := NewPartition(g, p)
			if err != nil {
				t.Fatal(err)
			}
			shardOf := func(i int) int {
				for s := 0; s < p; s++ {
					if lo, hi := pt.Range(s); int(lo) <= i && i < int(hi) {
						return s
					}
				}
				t.Fatalf("graph %d P=%d: peer %d in no shard range", gi, p, i)
				return -1
			}
			cross := make([]int64, p)
			for i := 0; i < g.NumNodes(); i++ {
				s := shardOf(i)
				for _, nb := range g.NeighborsView(i) {
					if shardOf(int(nb)) != s {
						cross[s]++
					}
				}
			}
			for s := 0; s < p; s++ {
				if pt.CrossEdges(s) != cross[s] {
					t.Errorf("graph %d P=%d shard %d: cross %d, brute force %d", gi, p, s, pt.CrossEdges(s), cross[s])
				}
			}
		}
	}
}

// TestPartitionRejectsSparseIDs checks the dense-id requirement, on an
// edge-built graph and on a generated one that lost a node after it was
// built (and so its arena).
func TestPartitionRejectsSparseIDs(t *testing.T) {
	g := NewGraph()
	if err := g.AddNode(0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(g, 2); err == nil {
		t.Fatal("sparse ids accepted")
	}
	sf, err := ScaleFree(ScaleFreeConfig{N: 300, Alpha: 2.5, MeanDegree: 8}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(sf, 2); err == nil {
		t.Fatal("a generated graph with id 0 removed was accepted")
	}
}

// TestPartitionMoreShardsThanPeers checks the degenerate P > N case.
func TestPartitionMoreShardsThanPeers(t *testing.T) {
	g, err := Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPartition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for s := 0; s < 8; s++ {
		lo, hi := pt.Range(s)
		seen += int(hi - lo)
	}
	if seen != 3 {
		t.Fatalf("P>N ranges cover %d of 3 peers", seen)
	}
}

// TestShardOfMatchesDivision pins the multiply-shift ShardOf against plain
// integer division for adversarial block sizes: powers of two, one off
// either side, primes, tiny and near-2^31 blocks, with dividends swept
// around every multiple-of-block boundary in range plus random probes.
func TestShardOfMatchesDivision(t *testing.T) {
	blocks := []int{1, 2, 3, 5, 7, 8, 9, 31, 32, 33, 100, 125000, 1 << 20, (1 << 20) + 1, (1 << 30) - 1, 1 << 30, (1 << 30) + 1}
	rng := xrand.New(11)
	const maxID = int64(1)<<31 - 1
	for _, b := range blocks {
		pt := &Partition{block: b}
		pt.blockMul, pt.blockShift = blockMagic(b)
		check := func(i int64) {
			if i < 0 || i > maxID {
				return
			}
			if got, want := pt.ShardOf(int32(i)), int(i)/b; got != want {
				t.Fatalf("ShardOf(%d) with block %d = %d, want %d", i, b, got, want)
			}
		}
		for k := int64(0); k <= 3; k++ {
			at := k * int64(b)
			check(at - 1)
			check(at)
			check(at + 1)
		}
		for _, at := range []int64{maxID, maxID - 1, maxID / int64(b) * int64(b), maxID/int64(b)*int64(b) - 1} {
			check(at)
		}
		for k := 0; k < 2000; k++ {
			check(int64(rng.Intn(int(maxID))))
		}
	}
}
