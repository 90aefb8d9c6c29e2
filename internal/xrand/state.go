package xrand

import (
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
// fast-forwarded by replaying the recorded number of draws. Every position
// SaveState can record is accepted; replay costs about 5 ns a draw, so a
// stream 2^28 draws in restores in about 1.3 s.
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
