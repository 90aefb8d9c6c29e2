package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"creditp2p/internal/xrand"
)

// graphDigest is an FNV-64a digest of g's node and edge counts, every row
// (id, degree, ascending neighbors) in id order, the next id NewNodeID
// would issue and the next draw of r — so a generator that changes its
// output or consumes the RNG differently changes the digest.
func graphDigest(g *Graph, r *xrand.RNG) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(g.NumNodes()))
	put(int64(g.NumEdges()))
	for _, id := range g.Nodes() {
		row := g.NeighborsView(id)
		put(int64(id))
		put(int64(len(row)))
		for _, nb := range row {
			put(int64(nb))
		}
	}
	put(int64(g.NewNodeID()))
	put(r.Int63())
	return h.Sum64()
}

// TestGeneratorDigests pins the exact output of the stub-matching
// generators. The 100k capped overlay is the one cmd/benchrun builds:
// about a million edges and 421 nodes whose neighbour signature ends with
// every bit set, so a pair of hubs takes configModel's exact row scan.
// The sparse N=200 scale-free overlays leave 27 to 56 components on every
// seed, so they cover EnsureConnected's stitching draws, and seeds 1, 3,
// 4, 6 and 8 draw an odd stub total and take the extra-stub draw.
func TestGeneratorDigests(t *testing.T) {
	type tc struct {
		name string
		run  func(r *xrand.RNG) (*Graph, error)
		seed int64
		want uint64
	}
	sf := func(cfg ScaleFreeConfig) func(r *xrand.RNG) (*Graph, error) {
		return func(r *xrand.RNG) (*Graph, error) { return ScaleFree(cfg, r) }
	}
	rr := func(n, d int) func(r *xrand.RNG) (*Graph, error) {
		return func(r *xrand.RNG) (*Graph, error) { return RandomRegular(n, d, r) }
	}
	cases := []tc{
		{"scalefree-100k-capped", sf(ScaleFreeConfig{N: 100_000, Alpha: 2.5, MeanDegree: 20, MaxDegree: 2000}), 7, 0x1e1073b9fe69b7ee},
		{"scalefree-20k-capped", sf(ScaleFreeConfig{N: 20_000, Alpha: 2.5, MeanDegree: 20, MaxDegree: 2000}), 7, 0xceb7414efb6a4bc6},
		{"scalefree-5k", sf(ScaleFreeConfig{N: 5000, Alpha: 2.5, MeanDegree: 20}), 7, 0x18450b005f3b71df},
		{"regular-1000x8", rr(1000, 8), 5, 0x67752df8b72893ca},
		{"regular-10000x20", rr(10_000, 20), 5, 0x4c52f490e6a83dc6},
	}
	sparse := []uint64{
		0x0b50746c7d81a81f, 0x11104f68fbfd7ab3, 0x4f7edbe79eb88ba5, 0xc9bf3a94fdc10e07,
		0xbd73dbe139c34813, 0x8d12675396a46264, 0x68024104f28348f3, 0x907009bc8b428dc1,
	}
	for i, want := range sparse {
		seed := int64(i + 1)
		cases = append(cases, tc{fmt.Sprintf("scalefree-200-sparse-seed%d", seed),
			sf(ScaleFreeConfig{N: 200, Alpha: 2.5, MeanDegree: 2}), seed, want})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := xrand.New(c.seed)
			g, err := c.run(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := graphDigest(g, r); got != c.want {
				t.Errorf("digest = %#x, want %#x", got, c.want)
			}
		})
	}
}
