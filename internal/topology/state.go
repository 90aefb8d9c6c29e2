package topology

import (
	"fmt"

	"creditp2p/internal/snapshot"
)

// SaveState serializes the graph: the node slab as per-slot ids plus one
// flat CSR adjacency slab, the free list, and the counters. The id->slot
// table is derived state, rebuilt on load (only its length is recorded, so
// growth behavior after restore matches the uninterrupted run).
func (g *Graph) SaveState(w *snapshot.Writer) {
	w.Section("graph")
	ids := make([]int32, len(g.nodes))
	counts := make([]int32, len(g.nodes))
	total := 0
	for i := range g.nodes {
		ids[i] = g.nodes[i].id
		counts[i] = int32(len(g.nodes[i].nbrs))
		total += len(g.nodes[i].nbrs)
	}
	flat := make([]int32, 0, total)
	for i := range g.nodes {
		flat = append(flat, g.nodes[i].nbrs...)
	}
	w.I32s(ids)
	w.I32s(counts)
	w.I32s(flat)
	w.I32s(g.free)
	w.Int(len(g.idSlot))
	w.Int(g.n)
	w.Int(g.edges)
	w.Int(g.nextID)
}

// LoadState restores a graph serialized by SaveState into the receiver,
// replacing all its state. maxNodes, when positive, bounds the accepted
// slab size.
func (g *Graph) LoadState(r *snapshot.Reader, maxNodes int) error {
	r.Section("graph")
	ids := r.I32s(maxNodes)
	counts := r.I32s(maxNodes)
	flat := r.I32s(0)
	free := r.I32s(maxNodes)
	idLen := r.Int()
	n := r.Int()
	edges := r.Int()
	nextID := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if len(ids) != len(counts) {
		return fmt.Errorf("topology: slab id/count lengths disagree (%d/%d)", len(ids), len(counts))
	}
	var total int64
	for _, c := range counts {
		if c < 0 {
			return fmt.Errorf("topology: negative neighbor count %d", c)
		}
		total += int64(c)
	}
	if total != int64(len(flat)) {
		return fmt.Errorf("topology: neighbor counts sum to %d but the adjacency slab holds %d entries", total, len(flat))
	}
	if idLen < 0 || (maxNodes > 0 && idLen > 64*maxNodes) {
		return fmt.Errorf("topology: id table length %d exceeds the caller's budget", idLen)
	}

	g.nodes = make([]nodeSlot, len(ids))
	g.idSlot = make([]int32, idLen)
	off := 0
	for i := range ids {
		c := int(counts[i])
		// Full-capacity sub-slices of one shared slab, as in Clone.
		g.nodes[i] = nodeSlot{id: ids[i], nbrs: flat[off : off+c : off+c]}
		off += c
		if id := ids[i]; id >= 0 {
			if int(id) >= idLen {
				return fmt.Errorf("topology: node id %d outside the %d-entry id table", id, idLen)
			}
			g.idSlot[id] = int32(i) + 1
		}
	}
	g.free = free
	g.n = n
	g.edges = edges
	g.nextID = nextID
	return g.checkLoaded()
}

// checkLoaded vets a decoded graph against the invariants every mutation
// keeps, so a crafted snapshot is refused at restore instead of indexing
// out of range in a later RemoveNode or AddEdge. Each present node is
// interned exactly once below nextID, and its row is strictly ascending,
// free of self-loops, and names present nodes that list it back. Free
// slots are empty, and the free list names each of them once. The node
// and edge counters match the slab.
func (g *Graph) checkLoaded() error {
	present, arcs := 0, 0
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.id < 0 {
			if len(nd.nbrs) != 0 {
				return fmt.Errorf("topology: free slot %d holds %d neighbours", i, len(nd.nbrs))
			}
			continue
		}
		if g.idSlot[nd.id] != int32(i)+1 || int(nd.id) >= g.nextID {
			return fmt.Errorf("topology: node id %d in slot %d is duplicated or not below the next id %d", nd.id, i, g.nextID)
		}
		present++
		arcs += len(nd.nbrs)
		for j, nb := range nd.nbrs {
			if j > 0 && nb <= nd.nbrs[j-1] {
				return fmt.Errorf("topology: node %d's neighbour row is not strictly ascending", nd.id)
			}
			s := g.slotOf(int(nb))
			if s < 0 || nb == nd.id {
				return fmt.Errorf("topology: node %d lists neighbour %d, which is itself or absent", nd.id, nb)
			}
			row := g.nodes[s].nbrs
			if k := searchInt32(row, nd.id); k == len(row) || row[k] != nd.id {
				return fmt.Errorf("topology: node %d lists neighbour %d, which does not list it back", nd.id, nb)
			}
		}
	}
	if present != g.n || arcs != 2*g.edges {
		return fmt.Errorf("topology: counters say %d nodes and %d edges, the slab holds %d nodes and %d arcs", g.n, g.edges, present, arcs)
	}
	if len(g.free) != len(g.nodes)-present {
		return fmt.Errorf("topology: free list holds %d slots, want %d", len(g.free), len(g.nodes)-present)
	}
	seen := make([]bool, len(g.nodes))
	for _, s := range g.free {
		if s < 0 || int(s) >= len(g.nodes) || g.nodes[s].id >= 0 || seen[s] {
			return fmt.Errorf("topology: free list names slot %d, which is not a distinct free slot", s)
		}
		seen[s] = true
	}
	return nil
}
