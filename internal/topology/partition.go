package topology

import (
	"fmt"
	"math/bits"

	"creditp2p/internal/prefetch"
)

// Partition is a read-only CSR snapshot of a dense overlay, split into P
// contiguous shard segments for the sharded kernel. Peers are partitioned
// by index block — shard s owns global indices [s·block, (s+1)·block) —
// so a lane's peer state and its segment of the adjacency arena are both
// contiguous in memory, and resolving a peer's shard is one integer
// division with no lookup table.
//
// The partition also counts, per shard, the directed edges whose
// endpoint lives on another shard; the counts drive the experiments
// report's cross-traffic column.
//
// A Partition reads the source Graph's CSR arena in place rather than
// copying it: the generators build each overlay's rows back to back in
// one arena, and a graph built edge by edge is compacted into one the
// first time it is partitioned. The graph never writes into an arena a
// partition reads (its mutators copy the rows out first), and the graph
// itself can be released after construction — at ten-million-peer scale
// the graph's id tables and slab bookkeeping are a significant slice of
// the memory budget that a running shard engine does not need.
type Partition struct {
	n     int
	p     int
	block int
	// blockMul/blockShift are the Granlund–Montgomery constants for exact
	// division by block via one multiply and shift: ShardOf sits on the
	// merged-effect apply and cross-shard routing hot paths, where a
	// hardware divide per event is measurable.
	blockMul   uint64
	blockShift uint
	// offs/nbrs are the CSR arrays over global dense indices: the
	// neighbors of peer i are nbrs[offs[i]:offs[i+1]], ascending.
	offs []int64
	nbrs []int32
	// cross[s] counts directed edges from shard s to another shard.
	cross []int64
}

// NewPartition splits g into p contiguous shard segments over g's arena.
// The graph's node ids must be exactly 0..NumNodes()-1 (the dense form
// every generator produces and the shard engine requires); gaps or holes
// are rejected. It allocates O(P) once the graph has an arena.
func NewPartition(g *Graph, p int) (*Partition, error) {
	if p < 1 {
		return nil, fmt.Errorf("topology: partition into %d shards", p)
	}
	a, err := g.shareArena()
	if err != nil {
		return nil, err
	}
	n := len(a.offs) - 1
	pt := &Partition{
		n:     n,
		p:     p,
		block: (n + p - 1) / p,
		offs:  a.offs,
		nbrs:  a.nbrs,
		cross: make([]int64, p),
	}
	if pt.block == 0 { // p > n, or an empty graph
		pt.block = 1
	}
	pt.blockMul, pt.blockShift = blockMagic(pt.block)
	// A shard's rows are one contiguous run of the arena, and a neighbour
	// v stays inside shard [lo, hi) exactly when v-lo, taken unsigned, is
	// below hi-lo.
	for s := range pt.cross {
		lo, hi := pt.Range(s)
		span := uint32(hi - lo)
		var c int64
		for _, v := range pt.nbrs[pt.offs[lo]:pt.offs[hi]] {
			if uint32(v-lo) >= span {
				c++
			}
		}
		pt.cross[s] = c
	}
	return pt, nil
}

// N returns the number of peers.
func (pt *Partition) N() int { return pt.n }

// Shards returns the shard count P.
func (pt *Partition) Shards() int { return pt.p }

// blockMagic returns the exact multiply-shift constants for division by
// block (Granlund & Montgomery): with l = ceil(log2 block) and
// m = floor(2^(32+l)/block) + 1, every dividend below 2^32 satisfies
// (i*m)>>(32+l) == i/block, and m <= 2^33 keeps the 64-bit product from
// overflowing for int32 indices. The unit test sweeps block-boundary
// dividends to pin the equivalence.
func blockMagic(block int) (mul uint64, shift uint) {
	l := uint(bits.Len32(uint32(block) - 1))
	return (uint64(1)<<(32+l))/uint64(block) + 1, 32 + l
}

// ShardOf returns the shard owning global index i.
func (pt *Partition) ShardOf(i int32) int {
	return int((uint64(uint32(i)) * pt.blockMul) >> pt.blockShift)
}

// Range returns shard s's global index range [lo, hi).
func (pt *Partition) Range(s int) (lo, hi int32) {
	l := s * pt.block
	h := l + pt.block
	if h > pt.n {
		h = pt.n
	}
	if l > pt.n {
		l = pt.n
	}
	return int32(l), int32(h)
}

// Neighbors returns peer i's ascending neighbor indices. The slice aliases
// the partition's arena; callers must not modify it.
func (pt *Partition) Neighbors(i int32) []int32 {
	return pt.nbrs[pt.offs[i]:pt.offs[i+1]]
}

// WarmBounds hints that peer i's row bounds (offs[i] and offs[i+1]) will
// be read soon, so that a Neighbors, Degree or RowStart call a few events
// later finds them cached. It is a prefetch hint and changes nothing.
func (pt *Partition) WarmBounds(i int32) { prefetch.Ends(pt.offs[i : i+2]) }

// Degree returns peer i's degree.
func (pt *Partition) Degree(i int32) int {
	return int(pt.offs[i+1] - pt.offs[i])
}

// RowStart returns the arena offset of peer i's CSR row — the prefix sum
// of degrees below i. Valid for i in [0, N]; RowStart(N) is Edges(). The
// sharded kernel uses it to address per-peer sub-slabs laid out in row
// order over one shared arena.
func (pt *Partition) RowStart(i int32) int64 { return pt.offs[i] }

// Edges returns the number of directed adjacency entries (2x the
// undirected edge count).
func (pt *Partition) Edges() int64 { return int64(len(pt.nbrs)) }

// CrossEdges returns the number of directed edges leaving shard s for
// another shard.
func (pt *Partition) CrossEdges(s int) int64 { return pt.cross[s] }

// CrossFraction returns the fraction of directed edges that cross a shard
// boundary — the conservative-sync engine's cross-traffic exposure.
func (pt *Partition) CrossFraction() float64 {
	if len(pt.nbrs) == 0 {
		return 0
	}
	var c int64
	for _, v := range pt.cross {
		c += v
	}
	return float64(c) / float64(len(pt.nbrs))
}
