package topology

import (
	"errors"
	"fmt"

	"creditp2p/internal/xrand"
)

// ErrBadParam is returned for invalid generator parameters.
var ErrBadParam = errors.New("topology: invalid parameter")

// ScaleFreeConfig parameterizes the paper's overlay (Sec. VI): node degrees
// follow a bounded power law P(D) ∝ D^-Alpha with the lower cutoff chosen so
// the mean degree matches MeanDegree.
type ScaleFreeConfig struct {
	N          int     // number of peers
	Alpha      float64 // power-law shape; the paper uses 2.5
	MeanDegree float64 // target average neighbor count; the paper uses 20
	MaxDegree  int     // degree cap; 0 means N-1
}

// validate also rejects populations whose ids 0..N-1 do not fit in 31 bits,
// since the generators install rows without going through AddNode.
func (c ScaleFreeConfig) validate() error {
	if c.N < 2 || c.N > maxID+1 {
		return fmt.Errorf("%w: N=%d", ErrBadParam, c.N)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("%w: Alpha=%v", ErrBadParam, c.Alpha)
	}
	if c.MeanDegree < 1 || c.MeanDegree > float64(c.N-1) {
		return fmt.Errorf("%w: MeanDegree=%v with N=%d", ErrBadParam, c.MeanDegree, c.N)
	}
	return nil
}

// ScaleFree generates a connected scale-free overlay via the configuration
// model: a degree sequence is drawn from the bounded power law, stubs are
// matched uniformly at random (rejecting self-loops and duplicate edges),
// and any leftover components are stitched together so content can reach
// every peer.
func ScaleFree(cfg ScaleFreeConfig, r *xrand.RNG) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	pl, err := xrand.PowerLawForMean(maxDeg, cfg.Alpha, cfg.MeanDegree)
	if err != nil {
		return nil, fmt.Errorf("degree sampler: %w", err)
	}
	// Conflicting pairs re-draw a few times, then give up on that pair
	// (slight degree shortfall is acceptable for an overlay).
	return configModel(cfg.N, 20, func() int { return pl.Sample(r) }, r)
}

// RandomRegular generates a connected random d-regular-ish graph by stub
// matching. It is the symmetric-utilization topology: every peer has the
// same number of neighbors, so uniform routing yields a doubly stochastic
// transfer matrix and u = (1,...,1) (Sec. V-C1).
func RandomRegular(n, d int, r *xrand.RNG) (*Graph, error) {
	if n < 2 || n > maxID+1 || d < 1 || d >= n {
		return nil, fmt.Errorf("%w: n=%d d=%d", ErrBadParam, n, d)
	}
	if n*d%2 == 1 {
		return nil, fmt.Errorf("%w: n*d must be even", ErrBadParam)
	}
	return configModel(n, 50, func() int { return d }, r)
}

// configModel draws a connected simple graph over nodes 0..n-1 by stub
// matching. Node i gets degree() stubs, drawn in id order; an odd stub
// total gains one stub on a uniform node. The stubs are shuffled and
// consecutive pairs become edges. A pair that would be a self-loop or a
// duplicate edge swaps its second stub with a random later one up to
// retries times and is dropped if it still conflicts. Leftover components
// are stitched by EnsureConnected.
//
// The graph is built directly in CSR form, not edge by edge through
// AddEdge, whose sorted-row upkeep (a binary search and a shifting insert
// per endpoint) would dominate generation. Each node's row is carved from
// one slab at its stub offset, since a node gains at most one edge per
// stub, and edges append to it unsorted. The duplicate check scans the
// shorter of the two rows, so it answers exactly as HasEdge would and the
// retries and RNG draws are those of matching through the Graph API. A
// final transpose into the by-then-free stub buffer walks sources in
// ascending order, so every row comes out sorted without a sort, and it
// places row v at the sum of the final degrees below v, so the rows sit
// back to back: that buffer is the graph's arena, which every Partition
// of the graph then reads in place. Connectivity is a breadth-first walk
// over the arena with a bitset for the visited set and the dead unsorted
// rows for its queue.
//
// The shuffle and the duplicate check wait on memory, not arithmetic.
// ShuffleInt32s makes r.Shuffle's exact draws and swaps but hints each
// batch of swap targets before it swaps. The duplicate check first reads
// a one-word signature of the shorter row, with bit b&63 set for every
// neighbour b: a clear bit proves the edge absent, which is the common
// answer, and only a set bit pays for the scan, so the check still
// answers exactly as HasEdge would.
func configModel(n, retries int, degree func() int, r *xrand.RNG) (*Graph, error) {
	// off[i+1] holds node i's stub count until the prefix sum below turns
	// off into stub offsets: node i's stubs span off[i]..off[i+1].
	off := make([]int64, n+1)
	total := 0
	for i := 1; i <= n; i++ {
		d := degree()
		off[i] = int64(d)
		total += d
	}
	stubs := make([]int32, 0, total+1)
	for i := 0; i < n; i++ {
		for k := int64(0); k < off[i+1]; k++ {
			stubs = append(stubs, int32(i))
		}
	}
	if len(stubs)%2 == 1 {
		x := r.Intn(n) // make the stub count even
		stubs = append(stubs, int32(x))
		off[x+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	r.ShuffleInt32s(stubs)

	adj := make([]int32, len(stubs)) // unsorted rows
	deg := make([]int32, n)
	sig := make([]uint64, n) // neighbour signatures, 8 B a node
	linked := func(a, b int32) bool {
		if deg[b] < deg[a] {
			a, b = b, a
		}
		if sig[a]&(1<<(b&63)) == 0 {
			return false
		}
		for _, v := range adj[off[a] : off[a]+int64(deg[a])] {
			if v == b {
				return true
			}
		}
		return false
	}
	edges := 0
	for i := 0; i+1 < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		ok := a != b && !linked(a, b)
		for attempt := 0; !ok && attempt < retries && i+2 < len(stubs); attempt++ {
			k := i + 2 + r.Intn(len(stubs)-i-2)
			stubs[i+1], stubs[k] = stubs[k], stubs[i+1]
			b = stubs[i+1]
			ok = a != b && !linked(a, b)
		}
		if ok {
			adj[off[a]+int64(deg[a])] = b
			deg[a]++
			sig[a] |= 1 << (b & 63)
			adj[off[b]+int64(deg[b])] = a
			deg[b]++
			sig[b] |= 1 << (a & 63)
			edges++
		}
	}

	// Transpose into stubs: u lands in row v once per v in row u, and u
	// ascends, so each row fills in ascending order. The graph is simple
	// and symmetric, so the transpose has the same rows, now sorted. The
	// signatures are done with, so their words hold each row's write
	// cursor, which starts at the degrees summed below the row and ends at
	// the next row's start.
	cur := sig
	var at uint64
	for v, d := range deg {
		cur[v] = at
		at += uint64(d)
	}
	rows := stubs[:at:at]
	for u := 0; u < n; u++ {
		for _, v := range adj[off[u] : off[u]+int64(deg[u])] {
			rows[cur[v]] = int32(u)
			cur[v]++
		}
	}
	// The stub offsets are done with too: off becomes the row offsets.
	for v, end := range cur {
		off[v+1] = int64(end)
	}
	connected := reachesAll(off, rows, adj[:0])
	g := &Graph{
		idSlot: make([]int32, n),
		nodes:  make([]nodeSlot, n),
		n:      n,
		edges:  edges,
		nextID: n,
		arena:  &arena{offs: off, nbrs: rows},
	}
	for i := range g.nodes {
		g.idSlot[i] = int32(i + 1)
		g.nodes[i] = nodeSlot{id: int32(i), nbrs: rows[off[i]:off[i+1]:off[i+1]]}
	}
	if !connected {
		if err := EnsureConnected(g, r); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// reachesAll reports whether a breadth-first walk from node 0 over the
// CSR (offs, nbrs) of n >= 1 nodes reaches every node. The visited set is
// a bitset, and the queue is appended to q, a dead buffer the caller
// lends.
func reachesAll(offs []int64, nbrs []int32, q []int32) bool {
	n := len(offs) - 1
	seen := make([]uint64, (n+63)/64)
	seen[0] = 1
	q = append(q[:0], 0)
	for h := 0; h < len(q); h++ {
		u := q[h]
		for _, v := range nbrs[offs[u]:offs[u+1]] {
			if w, b := v>>6, uint64(1)<<(v&63); seen[w]&b == 0 {
				seen[w] |= b
				q = append(q, v)
			}
		}
	}
	return len(q) == n
}

// ErdosRenyi generates a connected G(n, p) random graph with
// p = meanDegree/(n-1).
func ErdosRenyi(n int, meanDegree float64, r *xrand.RNG) (*Graph, error) {
	if n < 2 || meanDegree <= 0 || meanDegree > float64(n-1) {
		return nil, fmt.Errorf("%w: n=%d meanDegree=%v", ErrBadParam, n, meanDegree)
	}
	p := meanDegree / float64(n-1)
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(p) {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := EnsureConnected(g, r); err != nil {
		return nil, err
	}
	return g, nil
}

// Complete generates the complete graph K_n — the topology of the
// Dandekar-style complete-graph credit models the paper cites.
func Complete(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
		for j := 0; j < i; j++ {
			if err := g.AddEdge(i, j); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Ring generates a ring lattice where each node links to its k nearest
// neighbors on each side (a 2k-regular connected graph).
func Ring(n, k int, r *xrand.RNG) (*Graph, error) {
	if n < 3 || k < 1 || 2*k >= n {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrBadParam, n, k)
	}
	g := NewGraph()
	for i := 0; i < n; i++ {
		if err := g.AddNode(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= k; d++ {
			j := (i + d) % n
			if !g.HasEdge(i, j) {
				if err := g.AddEdge(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// EnsureConnected links the components of g (if more than one) by adding a
// random edge between each pair of consecutive components.
func EnsureConnected(g *Graph, r *xrand.RNG) error {
	comps := g.Components()
	for i := 1; i < len(comps); i++ {
		a := comps[i-1][r.Intn(len(comps[i-1]))]
		b := comps[i][r.Intn(len(comps[i]))]
		if err := g.AddEdge(a, b); err != nil {
			return err
		}
	}
	return nil
}

// AttachPreferential joins node id to the graph with m edges to existing
// nodes chosen with probability proportional to degree+1 (peer join under
// churn keeps the overlay scale-free-ish).
func AttachPreferential(g *Graph, id, m int, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	return attach(g, id, m, r, true)
}

// AttachRandom joins node id with m edges to uniformly random existing
// nodes.
func AttachRandom(g *Graph, id, m int, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	return attach(g, id, m, r, false)
}

// AttachFast joins node id with m edges in O(m) expected time, the
// churn-attachment path for 100k+ overlays where AttachPreferential's and
// AttachRandom's O(N) candidate scan per join dominates the simulation.
// Uniform endpoints are drawn by slab rejection (Graph.RandomNode);
// preferential endpoints take one extra hop to a uniform neighbor of a
// uniform node, which biases the pick toward high-degree nodes — the
// classic O(1) approximation of degree-proportional attachment (exact
// degree-proportionality would need a global edge-endpoint array). Ids
// already linked or equal to id are redrawn, with a scan fallback after
// repeated collisions so dense or tiny graphs still terminate.
func AttachFast(g *Graph, id, m int, preferential bool, r *xrand.RNG) error {
	if err := g.AddNode(id); err != nil {
		return err
	}
	if avail := g.NumNodes() - 1; m > avail {
		m = avail
	}
	const retriesPerEdge = 32
	for added := 0; added < m; added++ {
		linked := false
		for try := 0; try < retriesPerEdge; try++ {
			v, ok := g.RandomNode(r)
			if !ok {
				return fmt.Errorf("attach %d: empty graph", id)
			}
			if preferential {
				if d := g.Degree(v); d > 0 {
					v = g.NeighborAt(v, r.Intn(d))
				}
			}
			if v == id || g.HasEdge(id, v) {
				continue
			}
			if err := g.AddEdge(id, v); err != nil {
				return err
			}
			linked = true
			break
		}
		if linked {
			continue
		}
		// Collision storm (small or near-complete graph): link the first
		// non-neighbor in id order, which always exists because m was
		// clamped to the candidate count... unless every remaining node is
		// already a neighbor through the fallback of a previous edge; then
		// stop quietly like attach does when it runs out of candidates.
		if !attachScanFallback(g, id) {
			return nil
		}
	}
	return nil
}

// attachScanFallback links id to the smallest non-neighbor node, reporting
// whether one existed.
func attachScanFallback(g *Graph, id int) bool {
	for _, v := range g.Nodes() {
		if v == id || g.HasEdge(id, v) {
			continue
		}
		if err := g.AddEdge(id, v); err != nil {
			return false
		}
		return true
	}
	return false
}

func attach(g *Graph, id, m int, r *xrand.RNG, preferential bool) error {
	candidates := make([]int, 0, g.NumNodes()-1)
	weights := make([]float64, 0, g.NumNodes()-1)
	for _, v := range g.Nodes() {
		if v == id {
			continue
		}
		candidates = append(candidates, v)
		if preferential {
			weights = append(weights, float64(g.Degree(v)+1))
		} else {
			weights = append(weights, 1)
		}
	}
	if m > len(candidates) {
		m = len(candidates)
	}
	for added := 0; added < m; {
		idx, err := xrand.SampleWeighted(r, weights)
		if err != nil {
			return fmt.Errorf("attach %d: %w", id, err)
		}
		v := candidates[idx]
		if g.HasEdge(id, v) {
			weights[idx] = 0 // already linked; exclude
			continue
		}
		if err := g.AddEdge(id, v); err != nil {
			return err
		}
		weights[idx] = 0
		added++
	}
	return nil
}
