package shard_test

import (
	"reflect"
	"runtime"
	"testing"

	"creditp2p/internal/market"
	"creditp2p/internal/policy"
	"creditp2p/internal/shard"
	"creditp2p/internal/streaming"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// benchrunConfig is one of the four workload configurations of
// cmd/benchrun (market-100k, market-policy-50k, market-avail-churn-50k,
// streaming-ckpt-50k), written out again here at a test's population.
type benchrunConfig struct {
	name string
	cfg  func(t testing.TB, g *topology.Graph) shard.Config
}

var benchrunConfigs = []benchrunConfig{
	{"market", func(t testing.TB, g *topology.Graph) shard.Config {
		return benchrunMarket(t, g, 8)
	}},
	{"market-policy", func(t testing.TB, g *topology.Graph) shard.Config {
		cfg := benchrunMarket(t, g, 16)
		tax, err := policy.NewIncomeTax(0.25, 15)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policies = []policy.Policy{tax, policy.NewRedistribute()}
		cfg.PolicyEpoch = cfg.Horizon / 5
		return cfg
	}},
	{"market-avail-churn", func(t testing.TB, g *topology.Graph) shard.Config {
		cfg := benchrunMarket(t, g, 16)
		cfg.Churn = shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5}
		cfg.Routing = shard.RoutingConfig{Mode: shard.RouteAvailability}
		return cfg
	}},
	{"streaming", func(t testing.TB, g *topology.Graph) shard.Config {
		w, err := streaming.NewShard(streaming.ShardConfig{
			StreamRate: 4, ChunkPrice: 1, RoundPeriod: 1, SeedFrac: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		tax, err := policy.NewIncomeTax(0.3, 20)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := policy.NewInjection(1)
		if err != nil {
			t.Fatal(err)
		}
		return shard.Config{
			Graph: g, Shards: 2, Horizon: 7.5, Window: 30.0 / 1024, Seed: 8, InitialWealth: 20,
			Workload: w, Policies: []policy.Policy{tax, policy.NewRedistribute(), inj}, PolicyEpoch: 0.75,
		}
	}},
}

func benchrunMarket(t testing.TB, g *topology.Graph, horizon float64) shard.Config {
	w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	return shard.Config{Graph: g, Shards: 2, Horizon: horizon, Seed: 8, InitialWealth: 20, Workload: w}
}

// benchrunGraph is the benchmark's overlay family at n peers.
func benchrunGraph(t testing.TB, n int) *topology.Graph {
	g, err := topology.ScaleFree(topology.ScaleFreeConfig{N: n, Alpha: 2.5, MeanDegree: 20, MaxDegree: 2000}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// storage is the backing array of a lane's scheduler slab, the one array
// that holds a record per event slot: address, length and capacity.
type storage struct {
	ptr      uintptr
	len, cap int
}

func eventStorage(ln *shard.Lane) storage {
	slab := reflect.ValueOf(ln).Elem().FieldByName("sched").FieldByName("slab")
	return storage{slab.Pointer(), slab.Len(), slab.Cap()}
}

// slotArrays names each slice a lane's scheduler or its calendar holds,
// other than the slab and the free list, that is as long as the slab: a
// second per-slot array. The calendar chains through the slab, and its
// buffers grow only to the largest day batch and to a quarter of the
// pending entries in buckets, far short of one entry per slot.
func slotArrays(ln *shard.Lane) []string {
	sched := reflect.ValueOf(ln).Elem().FieldByName("sched")
	slots := sched.FieldByName("slab").Len()
	var found []string
	for _, v := range []reflect.Value{sched, sched.FieldByName("cal")} {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), v.Type().Field(i).Name
			if f.Kind() == reflect.Slice && name != "slab" && name != "free" && f.Cap() >= slots {
				found = append(found, name)
			}
		}
	}
	return found
}

// TestLaneEventStorageReserved starts the four benchmark workloads at
// 2,000 peers and runs them to the horizon, then again from a base taken
// halfway: no lane's scheduler slab may regrow, at Start, in the run or in
// the restored one, so New's reservation covers every event a lane holds
// and restore reuses it. The slab must also stay the only per-slot array.
func TestLaneEventStorageReserved(t *testing.T) {
	g := benchrunGraph(t, 2000)
	for _, bc := range benchrunConfigs {
		t.Run(bc.name, func(t *testing.T) {
			sim, err := shard.NewSim(bc.cfg(t, g))
			if err != nil {
				t.Fatal(err)
			}
			var reserved []storage
			for _, ln := range sim.Engine().Lanes() {
				reserved = append(reserved, eventStorage(ln))
			}
			if err := sim.Start(); err != nil {
				t.Fatal(err)
			}
			var base []byte
			for sim.StepWindow() {
				if base == nil && sim.Now() >= sim.Engine().Horizon()/2 {
					base = sim.Snapshot()
				}
			}
			checkReserved(t, "fresh run", sim, reserved, reserved)
			restored, err := shard.RestoreChain(bc.cfg(t, g), [][]byte{base})
			if err != nil {
				t.Fatal(err)
			}
			var atRestore []storage
			for _, ln := range restored.Engine().Lanes() {
				atRestore = append(atRestore, eventStorage(ln))
			}
			for restored.StepWindow() {
			}
			checkReserved(t, "restored run", restored, reserved, atRestore)
		})
	}
}

// checkReserved fails unless every lane of sim still holds the slab it
// held at start, with the capacity a fresh engine reserves, and no other
// per-slot array.
func checkReserved(t *testing.T, label string, sim *shard.Sim, fresh, start []storage) {
	t.Helper()
	for i, ln := range sim.Engine().Lanes() {
		st := eventStorage(ln)
		if st.ptr != start[i].ptr || st.cap != fresh[i].cap {
			t.Errorf("%s: lane %d slab regrew: %d of %d reserved slots, now %d used of %d",
				label, i, start[i].len, fresh[i].cap, st.len, st.cap)
		}
		if extra := slotArrays(ln); len(extra) > 0 {
			t.Errorf("%s: lane %d holds per-slot arrays besides the slab: %v", label, i, extra)
		}
	}
}

// TestRestoreChainAllocations bounds what RestoreChain allocates beyond
// building the engine it restores into: the per-peer arrays and the event
// storage decode in place, so the rest — metric series, histograms, the
// free list, the transpose buffers — stays far below the base's size.
func TestRestoreChainAllocations(t *testing.T) {
	g := benchrunGraph(t, 2000)
	cfg := benchrunConfigs[2].cfg // availability routing and churn: every per-peer array
	sim, err := shard.NewSim(cfg(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	stepWindows(t, sim, 64)
	base := sim.Snapshot()
	allocated := func(f func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	c := cfg(t, g)
	built := allocated(func() error { _, err := shard.New(c); return err })
	c = cfg(t, g)
	restored := allocated(func() error { _, err := shard.RestoreChain(c, [][]byte{base}); return err })
	t.Logf("New allocated %d bytes, RestoreChain %d, base %d bytes", built, restored, len(base))
	if extra := int64(restored) - int64(built); extra > int64(len(base)/4) {
		t.Fatalf("RestoreChain allocated %d bytes, %d more than New, against a %d-byte base", restored, extra, len(base))
	}
}

// laneWriterBufs returns the address, length and capacity of each lane
// fragment writer's buffer in a checkpointer's encoder.
func laneWriterBufs(ck *shard.Checkpointer) [][3]int {
	laneW := reflect.ValueOf(ck).Elem().FieldByName("enc").Elem().FieldByName("laneW")
	bufs := make([][3]int, laneW.Len())
	for i := range bufs {
		buf := laneW.Index(i).Elem().FieldByName("Writer").FieldByName("buf")
		bufs[i] = [3]int{int(buf.Pointer()), buf.Len(), buf.Cap()}
	}
	return bufs
}

// TestFirstCheckpointGrowsNoLaneWriter starts the four benchmark
// workloads at 2,000 peers, steps 8 windows (the streaming workload's
// checkpoint cadence) and takes one checkpoint: every lane fragment writer
// must hold its whole section in the buffer the checkpointer sized at
// construction, without regrowing it.
func TestFirstCheckpointGrowsNoLaneWriter(t *testing.T) {
	g := benchrunGraph(t, 2000)
	for _, bc := range benchrunConfigs {
		t.Run(bc.name, func(t *testing.T) {
			sim, err := shard.NewSim(bc.cfg(t, g))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Start(); err != nil {
				t.Fatal(err)
			}
			ck := shard.NewCheckpointer(sim.Engine(), &lenSink{}, shard.CheckpointOptions{})
			sized := laneWriterBufs(ck)
			stepWindows(t, sim, 8)
			checkpointSync(t, ck)
			for i, got := range laneWriterBufs(ck) {
				if got[1] == 0 {
					t.Fatalf("lane %d wrote no section", i)
				}
				if got[0] != sized[i][0] || got[2] != sized[i][2] {
					t.Errorf("lane %d writer regrew: sized %d bytes, wrote %d into %d", i, sized[i][2], got[1], got[2])
				}
				t.Logf("lane %d: wrote %d of %d sized bytes", i, got[1], sized[i][2])
			}
		})
	}
}
