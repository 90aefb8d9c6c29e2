package shard

// Weighted routing on the sharded kernel: per-peer Fenwick samplers over
// neighbor weights, fed by barrier-frozen weight mirrors.
//
// Each spender draws in O(log degree) from a Fenwick tree over its
// neighbors' weights. Availability is mutable cross-shard state, so the
// kernel splits the problem along the same line as the alive bitmap:
//
//   - weight[] is a dense per-peer weight mirror, written ONLY at window
//     barriers by the coordinator (publishWeights folds the window's
//     lifecycle deltas through the availability EWMA in canonical order)
//     and read freely by every lane during the window. In-window sampling
//     therefore touches zero shared mutable state and takes zero locks,
//     and the frozen-weight staleness (routing sees availability as of
//     the window start) is the exact analog of the liveness staleness the
//     engine already defines.
//
//   - Each peer owns a Fenwick tree over its neighbors' mirror weights,
//     packed back to back in one slab ([RowStart(g)+g : ... degree+1]
//     floats per peer) so a million trees carry no per-tree headers. The
//     tree is a pure function of the mirror, so results cannot depend on
//     when a rebuild happens. Checkpoints can: every base saves the slab
//     and the built/stale flags. So a lane rebuilds its own peer's stale
//     tree only at the peer's next pick, a point fixed by the event
//     sequence, never ahead of it in the dispatch read-ahead, whose view
//     depends on how the calendar cuts its day batches.
//
//   - Heavy hitters (degree above defaultHeavyDegree, 1024) skip the
//     lazy-stale discipline: an O(degree) rebuild per barrier touch would
//     make hub peers quadratic under churn waves, so their trees are
//     patched incrementally at the barrier (one O(log degree) FenAdd per
//     changed neighbor, applied in the same canonical delta order on the
//     coordinator).
//     Incremental float accumulation is order-sensitive, so the canonical
//     order is what keeps heavy trees — and with them every sampled
//     destination — bit-identical across shard counts.
//
// All trees are built eagerly during New in ascending peer order; after
// that, heavy trees are only ever patched and light trees only ever
// rebuilt from the mirror, so both populations have shard-count-invariant
// float state. The slab, mirror, and EWMA state serialize with their
// peers' segments in every checkpoint link, so restores resume the exact
// byte stream without a rebuild train.

import (
	"fmt"
	"math"
	"slices"

	"creditp2p/internal/prefetch"
	"creditp2p/internal/xrand"
)

// Routing selects how workloads pick spend destinations among neighbors.
type Routing uint8

const (
	// RouteUniform picks uniformly at random — the pre-routing behavior,
	// byte-identical to it.
	RouteUniform Routing = iota
	// RouteDegree weights neighbors by their overlay degree (static).
	RouteDegree
	// RouteAvailability weights neighbors by a floor of 0.05 plus an
	// exponential moving average (time constant 100) of their online
	// indicator (dynamic, refreshed at barriers from lifecycle deltas).
	RouteAvailability
)

// String names the mode for reports and goldenhash lines.
func (m Routing) String() string {
	switch m {
	case RouteUniform:
		return "uniform"
	case RouteDegree:
		return "degree"
	case RouteAvailability:
		return "availability"
	}
	return "unknown"
}

// RoutingConfig selects weighted destination sampling.
type RoutingConfig struct {
	// Mode selects the weighting; RouteUniform (the zero value) keeps the
	// historical uniform sampler and allocates nothing.
	Mode Routing
	// heavyDegree overrides defaultHeavyDegree when positive. Only tests
	// set it (export_test.go), to put hub trees on the barrier-patch path
	// in small overlays.
	heavyDegree int
}

const (
	// routingTau is the availability EWMA time constant.
	routingTau = 100.0
	// routingFloor is the availability weight floor, keeping every
	// neighbor reachable (and every tree total positive).
	routingFloor = 0.05
	// defaultHeavyDegree is the heavy-hitter threshold: peers with more
	// neighbors than this get barrier-patched trees instead of
	// lazy-stale rebuilds. It trades barrier patch bandwidth against the
	// worst-case lazy rebuild: every directed edge into a hub above the
	// threshold costs one O(log degree) patch per neighbor lifecycle
	// transition, while every peer below it pays at most an O(threshold)
	// rebuild at its first pick after a neighborhood change. Scale-free
	// overlays put a large fraction of edges on hubs, so a low threshold
	// drowns the barrier in patch traffic for trees that are rarely
	// sampled before they are patched again; 1024 keeps hub picks
	// O(log degree) while cutting patch bandwidth to the few true hubs.
	defaultHeavyDegree = 1024
)

// routingState is the engine's resident routing data. For RouteUniform
// every slice is nil.
type routingState struct {
	mode     Routing
	heavyDeg int

	// weight is the barrier-frozen per-peer routing weight mirror, in
	// the slab's float32 domain: the mirror is what trees rebuild from,
	// so keeping both in one precision makes a rebuilt tree and a
	// patched tree agree to the last bit of the stored weights.
	weight []float32
	// score/scoreT carry the availability EWMA: score is the EWMA of the
	// online indicator as of the peer's last lifecycle transition at
	// scoreT. Both change only in publishWeights (canonical order).
	score  []float64
	scoreT []float64
	// fenSlab packs every peer's Fenwick tree over its neighbor weights:
	// peer g's tree is fenSlab[RowStart(g)+g : +Degree(g)+1], leaves at
	// 1..degree. Slot 0 — unused by the Fenwick layout — caches the
	// tree's weight total, so a pick reads the total and the descent
	// nodes from the same cache lines instead of missing on a separate
	// totals array.
	fenSlab []float32
	// heavyRow/heavyNb/heavyLeaf form the heavy-edge CSR for availability
	// runs: for each peer g, heavyNb[heavyRow[g]:heavyRow[g+1]] lists g's
	// heavy-hitter neighbors and heavyLeaf the matching Fenwick leaf (g's
	// position in that hub's row, precomputed so a barrier patch lands on
	// the right leaf without binary-searching the hub's neighbor row).
	// Scale-free graphs keep this sparse — only a minority of directed
	// edges point at hubs — so the patch pass walks a few entries per
	// lifecycle delta instead of rescanning whole adjacency rows.
	heavyRow  []int64
	heavyNb   []int32
	heavyLeaf []int32
	// wdelta is publishWeights' grow-once scratch: the mirror-weight
	// change of each lifecycle delta, aligned with lifeScratch, computed
	// by the fold and consumed by the tree-patch pass.
	wdelta []float32
}

// validateRouting rejects an unknown routing mode.
func validateRouting(cfg *Config) error {
	if m := cfg.Routing.Mode; m > RouteAvailability {
		return fmt.Errorf("%w: Routing.Mode=%d", ErrBadConfig, m)
	}
	return nil
}

// heavyFlag returns the heavyBit peer g carries: set when weighted
// routing runs and g's degree is above the heavy-hitter threshold. It is
// static, so a restore must find it unchanged.
func (e *Engine) heavyFlag(g int32) uint8 {
	if e.rt.mode != RouteUniform && e.part.Degree(g) > e.rt.heavyDeg {
		return heavyBit
	}
	return 0
}

// initRouting allocates and builds the routing state. Runs during New,
// after the lanes exist: the weight mirror fills sequentially, then each
// lane builds its own peers' trees in parallel (disjoint slab regions,
// each tree a pure function of the mirror, so the build is deterministic).
func (e *Engine) initRouting() {
	rt := &e.rt
	rt.mode = e.cfg.Routing.Mode
	if rt.mode == RouteUniform {
		return
	}
	rt.heavyDeg = defaultHeavyDegree
	if h := e.cfg.Routing.heavyDegree; h > 0 {
		rt.heavyDeg = h
	}
	rt.weight = make([]float32, e.n)
	if rt.mode == RouteAvailability {
		rt.score = make([]float64, e.n)
		rt.scoreT = make([]float64, e.n)
		for g := 0; g < e.n; g++ {
			// Every peer starts online with a saturated EWMA.
			rt.score[g] = 1
			rt.weight[g] = float32(routingFloor + 1)
		}
	} else {
		for g := int32(0); g < int32(e.n); g++ {
			rt.weight[g] = float32(e.part.Degree(g))
		}
	}
	for g := int32(0); g < int32(e.n); g++ {
		e.flags[g] |= e.heavyFlag(g)
	}
	rt.fenSlab = make([]float32, e.part.Edges()+int64(e.n))
	e.parallel(func(ln *Lane) {
		for g := ln.lo; g < ln.hi; g++ {
			e.rebuildTree(g)
		}
	})
	if rt.mode == RouteAvailability {
		// Degree weights never change, so only availability runs patch
		// trees at barriers and need the heavy-edge CSR.
		rt.heavyRow = make([]int64, e.n+1)
		e.parallel(func(ln *Lane) {
			for g := ln.lo; g < ln.hi; g++ {
				c := int64(0)
				for _, nb := range e.part.Neighbors(g) {
					if e.flags[nb]&heavyBit != 0 {
						c++
					}
				}
				rt.heavyRow[g+1] = c
			}
		})
		for g := 0; g < e.n; g++ {
			rt.heavyRow[g+1] += rt.heavyRow[g]
		}
		rt.heavyNb = make([]int32, rt.heavyRow[e.n])
		rt.heavyLeaf = make([]int32, rt.heavyRow[e.n])
		e.parallel(func(ln *Lane) {
			for g := ln.lo; g < ln.hi; g++ {
				k := rt.heavyRow[g]
				for _, nb := range e.part.Neighbors(g) {
					if e.flags[nb]&heavyBit != 0 {
						rt.heavyNb[k] = nb
						leaf, _ := slices.BinarySearch(e.part.Neighbors(nb), g)
						rt.heavyLeaf[k] = int32(leaf)
						k++
					}
				}
			}
		})
	}
}

// tree returns peer g's slab tree (valid only when fenSlab is non-nil).
func (e *Engine) tree(g int32) []float32 {
	off := e.part.RowStart(g) + int64(g)
	return e.rt.fenSlab[off : off+int64(e.part.Degree(g))+1]
}

// rebuildTree refreshes peer g's tree from the frozen weight mirror and
// sets its built bit. Callable from g's owner lane mid-window (the slab
// region and flag byte are lane-owned) and from the coordinator at
// barriers.
func (e *Engine) rebuildTree(g int32) {
	rt := &e.rt
	nbrs := e.part.Neighbors(g)
	tree := e.tree(g)
	for i, nb := range nbrs {
		tree[i+1] = rt.weight[nb]
	}
	tree[0] = xrand.FenBuild(tree)
	e.flags[g] |= fenBuiltBit
}

// publishWeights is the barrier's mirror-publish step: fold the window's
// lifecycle deltas (already in canonical (time, peer, departure first)
// order) through the availability EWMA, updating the weight mirror and the
// dependent trees. Both passes run serially on the coordinator. The fold is a few
// thousand cheap float ops per window; the tree-patch pass walks each
// changed peer's row once, flipping light neighbors stale and patching
// heavy ones through the CSR. A lane-striped parallel variant was tried
// and retired: every worker must replay the whole delta list to find its
// slice of each row, so striping multiplies the row-walk overhead by the
// worker count and hands most of the win straight back. Per-peer EWMA folds
// and per-tree patch sequences are canonical-order subsequences of the
// delta list either way, so results are bit-identical across shard
// counts.
func (e *Engine) publishWeights() {
	rt := &e.rt
	if cap(rt.wdelta) < len(e.lifeScratch) {
		rt.wdelta = make([]float32, len(e.lifeScratch))
	}
	wd := rt.wdelta[:len(e.lifeScratch)]
	for i, le := range e.lifeScratch {
		g := le.Src
		death := le.Kind == KindDepart
		// EWMA of the online indicator over [scoreT, t): the peer was
		// online up to a death and offline up to a rejoin.
		d := math.Exp((rt.scoreT[g] - le.Time) / routingTau)
		s := rt.score[g] * d
		if death {
			s += 1 - d
		}
		rt.score[g] = s
		rt.scoreT[g] = le.Time
		w := routingFloor
		if !death {
			w += s
		}
		nw := float32(w)
		wd[i] = nw - rt.weight[g]
		rt.weight[g] = nw
	}
	if rt.fenSlab == nil {
		return
	}
	for i, le := range e.lifeScratch {
		if wd[i] == 0 {
			continue
		}
		g := le.Src
		// Light neighbors with a built tree go stale (they rebuild lazily
		// from the new mirror); heavy neighbors patch below via the CSR.
		for _, nb := range e.part.Neighbors(g) {
			fl := e.flags[nb]
			if fl&(fenBuiltBit|heavyBit) != fenBuiltBit {
				continue
			}
			e.flags[nb] = fl &^ fenBuiltBit
		}
		for k := rt.heavyRow[g]; k < rt.heavyRow[g+1]; k++ {
			nb := rt.heavyNb[k]
			tr := e.tree(nb)
			xrand.FenAdd(tr, int(rt.heavyLeaf[k]), wd[i])
			tr[0] += wd[i]
		}
	}
}

// PickNeighbor draws a spend destination for peer g from nbrs (g's
// neighbor row) using the run's routing mode and the peer's own stream.
// Exactly one logical draw per pick in every mode, so workload streams
// stay aligned across modes' code paths. Owner-lane only.
func (ln *Lane) PickNeighbor(t float64, g int32, nbrs []int32, r *xrand.SplitMix64) int32 {
	e := ln.e
	rt := &e.rt
	if rt.mode == RouteUniform {
		return nbrs[r.Intn(len(nbrs))]
	}
	if e.flags[g]&fenBuiltBit == 0 {
		e.rebuildTree(g)
	}
	tr := e.tree(g)
	u := r.Float64() * float64(tr[0])
	return nbrs[xrand.FenFind(tr, u)]
}

// warmSampler is the routing half of the dispatch prefetch: when the
// kernel knows peer g fires shortly, prefetch its tree's hot total. It
// never rebuilds a stale tree: the built bit and the slab are saved in
// every checkpoint, and which peers the read-ahead visits depends on how
// the calendar cuts its day batches, which a restore re-estimates.
func (e *Engine) warmSampler(g int32) {
	if e.rt.fenSlab == nil {
		return
	}
	prefetch.Of(&e.tree(g)[0])
}

// RoutingWeight returns peer g's barrier-frozen routing weight — the
// mirror value in-window sampling is proportional to (1 for RouteUniform).
// Tests use it as the exact reference distribution.
func (e *Engine) RoutingWeight(g int32) float64 {
	if e.rt.mode == RouteUniform {
		return 1
	}
	return float64(e.rt.weight[g])
}

// RoutingMode reports the run's routing mode.
func (e *Engine) RoutingMode() Routing { return e.rt.mode }

// routingDigest folds the results-affecting routing parameters into the
// snapshot config digest. The heavy threshold is results-affecting: heavy
// trees accumulate patches in canonical order while light trees rebuild,
// and the two float histories differ in rounding. The EWMA constants are
// folded as the configurable fields they replaced were, so checkpoints
// keep their digests.
func (e *Engine) routingDigest(h uint64) uint64 {
	rt := &e.rt
	h = fnvU64(h, uint64(rt.mode))
	if rt.mode == RouteUniform {
		return h
	}
	h = fnvU64(h, math.Float64bits(routingTau))
	h = fnvU64(h, math.Float64bits(routingFloor))
	h = fnvU64(h, uint64(rt.heavyDeg))
	return h
}
