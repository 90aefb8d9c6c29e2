package shard_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"creditp2p/internal/shard"
)

// blockSize is the layout granule of the lane-private rule: two 64-byte
// cache lines, the pair the adjacent-line prefetcher moves together.
const blockSize = 128

// span is one lane-written address range and the path that reached it.
type span struct {
	lo, hi uintptr
	lane   int
	path   string
}

// laneSpans collects the address ranges of lane-written objects by walking
// the object graph with reflection, so a field added later is covered
// without touching the test.
type laneSpans struct {
	spans []span
	seen  map[uintptr]bool
}

var engineType = reflect.TypeOf(shard.Engine{})

func (ls *laneSpans) add(lo, n uintptr, lane int, path string) {
	if n > 0 {
		ls.spans = append(ls.spans, span{lo: lo, hi: lo + n, lane: lane, path: path})
	}
}

// walk records what v reaches: the pointee of every pointer, the backing
// array of every slice, recursively. Pointers to the Engine are skipped —
// it is the coordinator's, shared by design and written only at barriers.
func (ls *laneSpans) walk(v reflect.Value, lane int, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type().Elem() == engineType || ls.seen[v.Pointer()] {
			return
		}
		ls.seen[v.Pointer()] = true
		ls.add(v.Pointer(), v.Type().Elem().Size(), lane, path)
		ls.walk(v.Elem(), lane, path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			ls.walk(v.Field(i), lane, path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			ls.walk(v.Index(i), lane, fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		if v.Cap() == 0 || ls.seen[v.Pointer()] {
			return
		}
		ls.seen[v.Pointer()] = true
		ls.add(v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size(), lane, path+"[]")
		for i := 0; i < v.Len(); i++ {
			ls.walk(v.Index(i), lane, fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// elements attributes the i-th element of a per-lane slice field, held by
// an object shared across lanes, to lane i: the checkpointer's fragment
// writers, reached through a pointer array that the lanes only read.
func (ls *laneSpans) elements(owner reflect.Value, field string, path string) {
	f := owner.Elem().FieldByName(field)
	if f.Kind() != reflect.Slice {
		panic(fmt.Sprintf("%v has no slice field %q", owner.Type(), field))
	}
	ls.seen[f.Pointer()] = true
	for i := 0; i < f.Len(); i++ {
		ls.walk(f.Index(i), i, fmt.Sprintf("%s[%d]", path, i))
	}
}

// shared reports every 128-byte block holding bytes of two different lanes.
func (ls *laneSpans) shared() []string {
	type owner struct {
		lane int
		path string
	}
	blocks := map[uintptr]owner{}
	var bad []string
	for _, s := range ls.spans {
		for b := s.lo / blockSize; b <= (s.hi-1)/blockSize; b++ {
			o, ok := blocks[b]
			if !ok {
				blocks[b] = owner{s.lane, s.path}
				continue
			}
			if o.lane != s.lane {
				bad = append(bad, fmt.Sprintf("block %#x: lane %d %s and lane %d %s",
					b*blockSize, o.lane, o.path, s.lane, s.path))
			}
		}
	}
	return bad
}

// TestLaneLayoutPrivateBlocks checks the lane-private cache-line rule on
// the addresses the allocator actually handed out: after a few windows
// and two checkpoints, and again on a run restored from the last one, no
// 128-byte block holds bytes of two lanes. The walk covers each Lane with
// its embedded scheduler, workload counters, calendar buffers, free list,
// balance histogram, outbox headers and arrays, lifecycle buffers, and
// the checkpointer's per-lane fragment writers.
func TestLaneLayoutPrivateBlocks(t *testing.T) {
	configs := []struct {
		name string
		cfg  func(p int) shard.Config
	}{
		{"uniform-market", func(p int) shard.Config {
			cfg := marketConfig(t, p, nil)
			cfg.Churn = shard.ChurnConfig{}
			return cfg
		}},
		{"avail-churn-market", func(p int) shard.Config {
			return routedMarket(t, p, shard.RoutingConfig{Mode: shard.RouteAvailability})
		}},
		{"policy-streaming", func(p int) shard.Config {
			return streamingConfig(t, p, taxPipeline(t))
		}},
	}
	for _, c := range configs {
		for _, p := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", c.name, p), func(t *testing.T) {
				cfg := c.cfg(p)
				sim, err := shard.NewSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.Start(); err != nil {
					t.Fatal(err)
				}
				sink := &memChain{}
				ck := shard.NewCheckpointer(sim.Engine(), sink, shard.CheckpointOptions{})
				stepWindows(t, sim, 4)
				checkpointSync(t, ck)
				stepWindows(t, sim, 4)
				checkpointSync(t, ck)
				stepWindows(t, sim, 4)
				checkLanePrivate(t, "live run", sim, ck)

				rcfg := c.cfg(p)
				restored, err := shard.RestoreChain(rcfg, cloneChain(sink.chain))
				if err != nil {
					t.Fatal(err)
				}
				stepWindows(t, restored, 4)
				checkLanePrivate(t, "restored run", restored, nil)
			})
		}
	}
}

func checkLanePrivate(t *testing.T, label string, sim *shard.Sim, ck *shard.Checkpointer) {
	t.Helper()
	ls := &laneSpans{seen: map[uintptr]bool{}}
	for i, ln := range sim.Engine().Lanes() {
		ls.walk(reflect.ValueOf(ln), i, fmt.Sprintf("lane%d", i))
	}
	if ck != nil {
		ls.elements(reflect.ValueOf(ck).Elem().FieldByName("enc"), "laneW", "ckpt.laneW")
	}
	bad := ls.shared()
	for i, b := range bad {
		if i == 10 {
			t.Errorf("%s: ... and %d more shared blocks", label, len(bad)-i)
			break
		}
		t.Errorf("%s: %s", label, b)
	}
	runtime.KeepAlive(sim)
	runtime.KeepAlive(ck)
}

// TestLaneSizeWholeBlocks pins Lane at a whole number of blocks: when a
// field is added, adjust the tail padding (lanePad in shard.go) to keep
// it so.
func TestLaneSizeWholeBlocks(t *testing.T) {
	if n := unsafe.Sizeof(shard.Lane{}); n%blockSize != 0 {
		t.Fatalf("shard.Lane is %d bytes, not a whole number of %d-byte blocks", n, blockSize)
	}
}
