// Package topology builds and mutates the P2P overlay graphs of the paper's
// evaluation: scale-free overlays with power-law degree distributions
// (P(D) ∝ D^-2.5, mean degree 20, Sec. VI), plus regular, random and
// complete topologies used for symmetric-utilization configurations and
// tests. Graphs are mutable to support peer churn (open-network
// experiments, Sec. VI-E).
//
// The representation is built for million-node overlays: adjacency is a
// slab of index-ordered neighbor slices (a mutable CSR) instead of a
// map-of-maps, so a graph costs ~8 bytes per directed edge, neighbor
// iteration is a contiguous scan, and neighbor queries never sort. Node
// ids are interned through a dense id→slot table; node slots and their
// neighbor storage are recycled through a free list, and every whole-graph
// iteration walks the slab (bounded by the peak live population), so churn
// costs stay proportional to the live overlay. The id table itself retains
// 4 bytes per id ever used — NewNodeID is monotone by contract — which is
// the one deliberately unreclaimed residue of a long open-network run.
// Node ids must be non-negative (they index the dense table) and fit in
// 31 bits.
//
// A generated graph keeps its rows back to back in one CSR arena (row
// offsets plus neighbour ids), and a Partition of the graph reads that
// arena instead of copying it. Mutators give the rows storage of their
// own before they write, so a partition never sees a change.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"creditp2p/internal/xrand"
)

// ErrNodeExists is returned when adding a node whose id is already present.
var ErrNodeExists = errors.New("topology: node already exists")

// ErrNoNode is returned when an operation references an absent node.
var ErrNoNode = errors.New("topology: no such node")

// ErrBadID is returned when a node id is negative or does not fit in 31
// bits; ids index the dense id→slot table and neighbor slices store them
// as int32.
var ErrBadID = errors.New("topology: node id out of range")

// Graph is an undirected simple graph over integer node ids. The zero value
// is not usable; call NewGraph. Graph is not safe for concurrent use,
// except that several goroutines may call NewPartition on one graph at
// once: the first call on a graph without an arena builds it and repoints
// the rows, so no other reader may run beside that call.
//
// Memory is O(maxID + edges): keep ids compact (NewNodeID hands out the
// smallest unused id) rather than sparse.
type Graph struct {
	// idSlot maps id -> slot+1 into nodes; 0 marks an absent id.
	idSlot []int32
	// nodes is the node slab; slots of removed nodes are recycled via free
	// and keep their neighbor capacity for the next incarnation.
	nodes []nodeSlot
	free  []int32
	n     int // live node count
	edges int
	// nextID is the smallest id never issued by NewNodeID nor used by
	// AddNode.
	nextID int
	// arena, when set, holds every row back to back in id order, and each
	// live node's nbrs is a capacity-clipped view of its row; the ids are
	// then exactly 0..n-1. configModel builds it, NewPartition builds it
	// on first use, and own drops it before any mutation.
	arena *arena
	// shared records that a Partition reads the arena, so own must copy
	// the rows out before a mutation writes.
	shared bool
	// arenaMu serialises NewPartition's arena build and hand-over, so
	// engines may be built from one graph concurrently.
	arenaMu sync.Mutex
}

// arena is a CSR over dense ids: the ascending neighbours of node i are
// nbrs[offs[i]:offs[i+1]].
type arena struct {
	offs []int64
	nbrs []int32
}

// nodeSlot is one slab entry: the node's id and its neighbor ids in
// ascending order.
type nodeSlot struct {
	id   int32
	nbrs []int32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// maxID is the largest admissible node id.
const maxID = math.MaxInt32 - 1

// slotOf resolves id to its slab slot, or -1 when absent.
func (g *Graph) slotOf(id int) int32 {
	if id < 0 || id >= len(g.idSlot) {
		return -1
	}
	return g.idSlot[id] - 1
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id int) bool { return g.slotOf(id) >= 0 }

// NewNodeID returns an id that has never been used by this graph.
func (g *Graph) NewNodeID() int {
	id := g.nextID
	g.nextID++
	return id
}

// AddNode inserts an isolated node.
func (g *Graph) AddNode(id int) error {
	if id < 0 || id > maxID {
		return fmt.Errorf("%w: %d", ErrBadID, id)
	}
	if g.HasNode(id) {
		return fmt.Errorf("%w: %d", ErrNodeExists, id)
	}
	g.own()
	if id >= len(g.idSlot) {
		grown := len(g.idSlot) * 2
		if grown <= id {
			grown = id + 1
		}
		t := make([]int32, grown)
		copy(t, g.idSlot)
		g.idSlot = t
	}
	var slot int32
	if k := len(g.free); k > 0 {
		slot = g.free[k-1]
		g.free = g.free[:k-1]
	} else {
		g.nodes = append(g.nodes, nodeSlot{})
		slot = int32(len(g.nodes) - 1)
	}
	nd := &g.nodes[slot]
	nd.id = int32(id)
	nd.nbrs = nd.nbrs[:0] // keep recycled capacity
	g.idSlot[id] = slot + 1
	g.n++
	if id >= g.nextID {
		g.nextID = id + 1
	}
	return nil
}

// RemoveNode deletes a node and all incident edges (a peer departure). Its
// slot is recycled, neighbor capacity included.
func (g *Graph) RemoveNode(id int) error {
	slot := g.slotOf(id)
	if slot < 0 {
		return fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	g.own()
	nd := &g.nodes[slot]
	for _, nb := range nd.nbrs {
		ns := g.idSlot[nb] - 1
		g.nodes[ns].nbrs = removeSorted(g.nodes[ns].nbrs, int32(id))
		g.edges--
	}
	nd.nbrs = nd.nbrs[:0]
	nd.id = -1 // marks the slot free for the slab iterations
	g.idSlot[id] = 0
	g.free = append(g.free, slot)
	g.n--
	return nil
}

// AddEdge inserts the undirected edge {a, b}. Self-loops and duplicate
// edges are rejected with an error (the overlay is a simple graph).
func (g *Graph) AddEdge(a, b int) error {
	if a == b {
		return fmt.Errorf("topology: self-loop at %d", a)
	}
	sa := g.slotOf(a)
	if sa < 0 {
		return fmt.Errorf("%w: %d", ErrNoNode, a)
	}
	sb := g.slotOf(b)
	if sb < 0 {
		return fmt.Errorf("%w: %d", ErrNoNode, b)
	}
	na := &g.nodes[sa]
	i, dup := slices.BinarySearch(na.nbrs, int32(b))
	if dup {
		return fmt.Errorf("topology: duplicate edge {%d,%d}", a, b)
	}
	g.own()
	na.nbrs = slices.Insert(na.nbrs, i, int32(b))
	nb := &g.nodes[sb]
	j, _ := slices.BinarySearch(nb.nbrs, int32(a))
	nb.nbrs = slices.Insert(nb.nbrs, j, int32(a))
	g.edges++
	return nil
}

// RemoveEdge deletes the undirected edge {a, b} if present.
func (g *Graph) RemoveEdge(a, b int) error {
	if !g.HasEdge(a, b) {
		return fmt.Errorf("%w: edge {%d,%d}", ErrNoNode, a, b)
	}
	g.own()
	sa, sb := g.idSlot[a]-1, g.idSlot[b]-1
	g.nodes[sa].nbrs = removeSorted(g.nodes[sa].nbrs, int32(b))
	g.nodes[sb].nbrs = removeSorted(g.nodes[sb].nbrs, int32(a))
	g.edges--
	return nil
}

// HasEdge reports whether the undirected edge {a, b} exists.
func (g *Graph) HasEdge(a, b int) bool {
	sa := g.slotOf(a)
	if sa < 0 || !g.HasNode(b) {
		return false
	}
	_, found := slices.BinarySearch(g.nodes[sa].nbrs, int32(b))
	return found
}

// Degree returns the degree of id, or 0 if absent.
func (g *Graph) Degree(id int) int {
	slot := g.slotOf(id)
	if slot < 0 {
		return 0
	}
	return len(g.nodes[slot].nbrs)
}

// Neighbors returns the sorted neighbor ids of id. The slice is a copy.
func (g *Graph) Neighbors(id int) []int {
	return g.AppendNeighbors(nil, id)
}

// AppendNeighbors appends the sorted neighbor ids of id to dst and returns
// the extended slice — the allocation-free variant of Neighbors for callers
// that reuse a scratch buffer. Adjacency is stored sorted, so this is a
// straight copy with no sort.
func (g *Graph) AppendNeighbors(dst []int, id int) []int {
	slot := g.slotOf(id)
	if slot < 0 {
		return dst
	}
	for _, nb := range g.nodes[slot].nbrs {
		dst = append(dst, int(nb))
	}
	return dst
}

// NeighborsView returns the graph's internal ascending neighbor slice of
// id (nil when absent) — the zero-copy variant of AppendNeighbors for hot
// read paths. The slice is owned by the graph: callers must not modify it,
// and any graph mutation invalidates it.
func (g *Graph) NeighborsView(id int) []int32 {
	slot := g.slotOf(id)
	if slot < 0 {
		return nil
	}
	return g.nodes[slot].nbrs
}

// Nodes returns all node ids in ascending order. It iterates the node slab
// (bounded by the peak live population), not the id table — under churn,
// NewNodeID hands out ever-fresh ids, so an id-table scan would grow with
// the total number of peers that ever existed.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, g.n)
	for i := range g.nodes {
		if g.nodes[i].id >= 0 {
			out = append(out, int(g.nodes[i].id))
		}
	}
	sort.Ints(out)
	return out
}

// RandomNode returns a uniformly random live node id, or ok=false for an
// empty graph. It rejection-samples over the node slab, whose length is
// bounded by the peak live population, so the expected cost is O(1) for
// any graph that has not shrunk far below its peak.
func (g *Graph) RandomNode(r *xrand.RNG) (int, bool) {
	if g.n == 0 {
		return 0, false
	}
	for {
		s := r.Intn(len(g.nodes))
		if g.nodes[s].id >= 0 {
			return int(g.nodes[s].id), true
		}
	}
}

// NeighborAt returns the i-th smallest neighbor of id. It panics when i is
// out of [0, Degree(id)) — callers pair it with Degree.
func (g *Graph) NeighborAt(id, i int) int {
	return int(g.nodes[g.slotOf(id)].nbrs[i])
}

// MeanDegree returns the average node degree (0 for an empty graph).
func (g *Graph) MeanDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(g.n)
}

// DegreeSequence returns all degrees in descending order.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, 0, g.n)
	for i := range g.nodes {
		if g.nodes[i].id >= 0 {
			out = append(out, len(g.nodes[i].nbrs))
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Components returns the connected components, each as a sorted id slice,
// ordered by their smallest member. Visited state is tracked per slot, so
// the walk is bounded by the live population, not the id space.
func (g *Graph) Components() [][]int {
	seen := make([]bool, len(g.nodes))
	var comps [][]int
	var queue []int32 // slots
	for _, start := range g.Nodes() {
		s := g.idSlot[start] - 1
		if seen[s] {
			continue
		}
		var comp []int
		queue = append(queue[:0], s)
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, int(g.nodes[v].id))
			for _, nb := range g.nodes[v].nbrs {
				ns := g.idSlot[nb] - 1
				if !seen[ns] {
					seen[ns] = true
					queue = append(queue, ns)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	// BFS starts run over ascending ids, so each component is discovered at
	// its smallest member and comps are already ordered by it.
	return comps
}

// IsConnected reports whether the graph has exactly one component (empty
// graphs are trivially connected). It walks breadth-first from one live
// slot and counts what it reaches, building none of Components' lists.
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	queue := make([]int32, 0, g.n) // slots
	for s := range g.nodes {
		if g.nodes[s].id >= 0 {
			queue = append(queue, int32(s))
			seen[s] = true
			break
		}
	}
	for h := 0; h < len(queue); h++ {
		for _, nb := range g.nodes[queue[h]].nbrs {
			if ns := g.idSlot[nb] - 1; !seen[ns] {
				seen[ns] = true
				queue = append(queue, ns)
			}
		}
	}
	return len(queue) == g.n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		idSlot: append([]int32(nil), g.idSlot...),
		nodes:  make([]nodeSlot, len(g.nodes)),
		free:   append([]int32(nil), g.free...),
		n:      g.n,
		edges:  g.edges,
		nextID: g.nextID,
	}
	// One shared adjacency slab for the copy.
	slab := make([]int32, 0, 2*g.edges)
	for i := range g.nodes {
		start := len(slab)
		slab = append(slab, g.nodes[i].nbrs...)
		c.nodes[i] = nodeSlot{id: g.nodes[i].id, nbrs: slab[start:len(slab):len(slab)]}
	}
	return c
}

// own gives the rows storage of their own and drops the arena; every
// mutator calls it before its first write. An arena no partition reads is
// dropped without a copy, since the rows are then the graph's alone.
func (g *Graph) own() {
	a := g.arena
	if a == nil {
		return
	}
	g.arena = nil
	if !g.shared {
		return
	}
	g.shared = false
	slab := slices.Clone(a.nbrs)
	for i := range g.nodes {
		if id := g.nodes[i].id; id >= 0 {
			lo, hi := a.offs[id], a.offs[id+1]
			g.nodes[i].nbrs = slab[lo:hi:hi]
		}
	}
}

// shareArena returns the graph's arena for a Partition to read and marks
// it shared. A graph without one (built by AddEdge, or mutated since) is
// compacted once: its rows are copied back to back in id order and then
// point into the new arena, so later partitions share it too. The ids
// must be exactly 0..NumNodes()-1.
func (g *Graph) shareArena() (*arena, error) {
	g.arenaMu.Lock()
	defer g.arenaMu.Unlock()
	if g.arena == nil {
		offs := make([]int64, g.n+1)
		for i := 0; i < g.n; i++ {
			s := g.slotOf(i)
			if s < 0 {
				return nil, fmt.Errorf("topology: partition needs dense ids 0..%d, id %d is absent", g.n-1, i)
			}
			offs[i+1] = offs[i] + int64(len(g.nodes[s].nbrs))
		}
		nbrs := make([]int32, offs[g.n])
		for i := 0; i < g.n; i++ {
			nd := &g.nodes[g.idSlot[i]-1]
			lo, hi := offs[i], offs[i+1]
			copy(nbrs[lo:hi], nd.nbrs)
			nd.nbrs = nbrs[lo:hi:hi]
		}
		g.arena = &arena{offs: offs, nbrs: nbrs}
	}
	g.shared = true
	return g.arena, nil
}

// removeSorted deletes v from the ascending slice s (no-op when absent).
func removeSorted(s []int32, v int32) []int32 {
	i, found := slices.BinarySearch(s, v)
	if !found {
		return s
	}
	return slices.Delete(s, i, i+1)
}
