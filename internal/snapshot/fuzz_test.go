package snapshot_test

import (
	"os"
	"runtime"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// tags are the section tags the kernels write, for the Section reads.
var tags = []string{
	"", "chain", "dsched", "graph", "kernel", "lane", "ledger", "market",
	"metrics", "peers", "policies", "rng", "shardeng", "shardhdr", "streaming",
}

// reads are the Reader's typed reads with no caller cap: every slice
// read is bounded only by the payload left, and Fill by a fixed
// destination.
var reads = []func(r *snapshot.Reader){
	func(r *snapshot.Reader) { r.LinkHeader() },
	func(r *snapshot.Reader) { r.Bool() },
	func(r *snapshot.Reader) { r.U8() },
	func(r *snapshot.Reader) { r.U32() },
	func(r *snapshot.Reader) { r.U64() },
	func(r *snapshot.Reader) { r.I64() },
	func(r *snapshot.Reader) { r.Int() },
	func(r *snapshot.Reader) { r.F64() },
	func(r *snapshot.Reader) { snapshot.Fill(r, "fill", make([]uint32, 16)) },
	func(r *snapshot.Reader) { r.Bytes(0) },
	func(r *snapshot.Reader) { r.I32s(0) },
	func(r *snapshot.Reader) { r.I64s(0) },
	func(r *snapshot.Reader) { r.U64s(0) },
	func(r *snapshot.Reader) { r.U32s(0) },
	func(r *snapshot.Reader) { r.U16s(0) },
	func(r *snapshot.Reader) { r.U8s(0) },
	func(r *snapshot.Reader) { r.F64s(0) },
	func(r *snapshot.Reader) { r.F32s(0) },
}

// readAll opens data and, if it opens, reads it to the end or the first
// error: op byte b picks a Section read of a kernel tag when b is below
// len(tags), a typed read otherwise, cycling through ops. Every read
// consumes at least one byte or fails, so the loop ends.
func readAll(data, ops []byte) {
	r, err := snapshot.Open(data)
	if err != nil {
		return
	}
	if len(ops) == 0 {
		ops = []byte{byte(len(tags))}
	}
	for i := 0; r.Err() == nil && r.Remaining() > 0; i++ {
		op := int(ops[i%len(ops)]) % (len(tags) + len(reads))
		if op < len(tags) {
			r.Section(tags[op])
		} else {
			reads[op-len(tags)](r)
		}
	}
	_ = r.Close()
}

// allocSlack covers the fixed-size allocations of one input: two Readers
// and the error strings, which quote at most a section tag.
const allocSlack = 64 << 10

// FuzzSnapshotOpen drives snapshot.Open and the Reader with arbitrary
// bytes. Each input is read as given, which exercises the header and
// checksum checks, and again with its payload re-sealed under the current
// header, so mutations reach the typed reads. The second input picks the
// read sequence. Property: nothing panics, and opening and reading
// everything allocates at most 4x the input length plus allocSlack — the
// re-seal copies the input once, and every read copies at most the bytes
// it consumes, so a declared size can never buy an allocation the payload
// does not back. Seeds: checkpoint bases of a sharded market and a sharded
// streaming run, four captures of the retired single-threaded market's
// format (testdata here) and a v3 sharded base.
func FuzzSnapshotOpen(f *testing.F) {
	for _, base := range kernelBases(f) {
		f.Add(base, []byte(nil))
	}
	for _, path := range []string{
		"testdata/market-v4-bare.ckpt",
		"testdata/tax-bridge.ckpt",
		"testdata/market-fast.ckpt",
		"testdata/market-degree.ckpt",
		"../shard/testdata/shard-v3.ckpt",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33})
	}
	const header, trailer = 12, 8
	hdr := snapshot.NewWriter(0).Frame() // magic + current version
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		readAll(data, ops)
		if len(data) >= header+trailer {
			resealed := snapshot.Seal(nil, [][]byte{hdr, data[header : len(data)-trailer]})
			readAll(resealed, ops)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data)+allocSlack) {
			t.Fatalf("opening and reading a %d-byte input allocated %d bytes", len(data), grew)
		}
	})
}

// kernelBases returns checkpoint bases of two small 2-lane sharded runs, a
// churned market and a streaming swarm, each taken mid-run.
func kernelBases(t testing.TB) [][]byte {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: 300, MeanDegree: 6, Alpha: 2.5}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	mw, err := market.NewShard(market.ShardConfig{Mu: 2, Amount: 1, FreeRiderFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := streaming.NewShard(streaming.ShardConfig{StreamRate: 3, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var bases [][]byte
	for _, cfg := range []shard.Config{
		{Graph: g, Shards: 2, Horizon: 10, Seed: 3, InitialWealth: 20, Workload: mw,
			Churn: shard.ChurnConfig{MeanLifespan: 8, MeanDowntime: 3}},
		{Graph: g, Shards: 2, Horizon: 10, Seed: 4, InitialWealth: 20, Workload: sw},
	} {
		s, err := shard.NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20 && s.StepWindow(); i++ {
		}
		bases = append(bases, s.Snapshot())
	}
	return bases
}
