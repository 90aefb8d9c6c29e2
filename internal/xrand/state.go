package xrand

import (
	"fmt"
	"math/rand"

	"creditp2p/internal/snapshot"
)

// SaveState records the stream position: its seed and how many source draws
// have been consumed. Together they pin the generator exactly — every
// sampler draws through the one counted source, so (seed, draws) is the
// complete state.
func (r *RNG) SaveState(w *snapshot.Writer) {
	w.Section("rng")
	w.I64(r.seed)
	w.U64(r.cs.draws)
}

// LoadState repositions the stream: a fresh source with the recorded seed is
// fast-forwarded by replaying the recorded number of draws. Replay runs at
// tens of millions of draws per second, so even long runs restore in well
// under a second per stream.
func (r *RNG) LoadState(rd *snapshot.Reader) {
	rd.Section("rng")
	seed := rd.I64()
	draws := rd.U64()
	if rd.Err() != nil {
		return
	}
	cs := &countedSource{src: rand.NewSource(seed).(rand.Source64)}
	for i := uint64(0); i < draws; i++ {
		cs.src.Uint64()
	}
	cs.draws = draws
	r.seed = seed
	r.cs = cs
	r.src = rand.New(cs)
}

// SaveState serializes the sampler verbatim. A caller's index may lag the
// weights it would rebuild from today (the market refreshes a degree index
// only when churn touches its spender), so the tree is stored rather than
// rebuilt: a restored tree reproduces the exact same samples.
func (f *Fenwick) SaveState(w *snapshot.Writer) {
	w.F64s(f.tree)
	w.Int(f.n)
	w.Int(f.top)
	w.F64(f.total)
}

// LoadState restores a sampler serialized by SaveState, refusing a tree
// whose shape disagrees with its weight count (Find would index past it).
func (f *Fenwick) LoadState(rd *snapshot.Reader, maxWeights int) error {
	f.tree = rd.F64s(maxWeights)
	f.n = rd.Int()
	f.top = rd.Int()
	f.total = rd.F64()
	if err := rd.Err(); err != nil {
		return err
	}
	top := 1
	for top*2 <= f.n {
		top *= 2
	}
	if f.n < 0 || len(f.tree) != f.n+1 || f.top != top {
		return fmt.Errorf("xrand: sampler tree of %d nodes, top %d, for %d weights", len(f.tree), f.top, f.n)
	}
	return nil
}
