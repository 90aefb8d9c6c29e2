package main

import (
	"fmt"
	"time"

	"creditp2p/internal/des"
	"creditp2p/internal/market"
	"creditp2p/internal/shard"
	"creditp2p/internal/snapshot"
	"creditp2p/internal/topology"
	"creditp2p/internal/xrand"
)

// The ladder times public layer functions in isolation, so that a change
// in a workload's end-to-end numbers can be pinned to a layer. Every rung
// is warmed before it is timed and reports the median of five batches.

// batchMin is the least wall time of one timed batch.
const batchMin = 40 * time.Millisecond

// sink keeps ladder results observable so the compiler cannot drop the
// calls that produce them.
var sink uint64

// nsPerOp times fn, which performs ops operations per call: one untimed
// warm-up call, then five batches of at least batchMin each. It returns
// the median batch's nanoseconds per operation.
func nsPerOp(ops int, fn func()) float64 {
	fn()
	per := make([]float64, 5)
	for b := range per {
		calls := 0
		t0 := time.Now()
		for {
			fn()
			calls++
			if el := time.Since(t0); el >= batchMin {
				per[b] = float64(el.Nanoseconds()) / float64(calls*ops)
				break
			}
		}
	}
	return median(per)
}

// ladderConfig sizes the ladder; the test shrinks it.
type ladderConfig struct {
	holdSmall, holdLarge int // calendar pending-set sizes
	pickPeers            int // overlay size of the warm pick engines
	snapshotWords        int // payload of the encode/open rung
}

var fullLadder = ladderConfig{holdSmall: 50_000, holdLarge: 500_000, pickPeers: 100_000, snapshotWords: 4 << 20}

// runLadder measures every rung, seeding its inputs from seed.
func runLadder(lc ladderConfig, seed int64) ([]metric, error) {
	rng := xrand.NewSplitMix64(seed, 0)
	pickU, pickA, err := pickNS(lc.pickPeers, seed)
	if err != nil {
		return nil, err
	}
	enc, open, err := snapshotGBps(lc.snapshotWords, &rng)
	if err != nil {
		return nil, err
	}
	return []metric{
		single("des.hold_ns_50k", "ns", holdNS(lc.holdSmall, &rng)),
		single("des.hold_ns_500k", "ns", holdNS(lc.holdLarge, &rng)),
		single("des.mergebuf_add_ns", "ns", mergeBufAddNS()),
		single("des.merge_ns_per_effect", "ns", mergeNS(&rng)),
		single("xrand.fenfind_ns_d20", "ns", fenFindNS(20, &rng)),
		single("xrand.fenfind_ns_d2000", "ns", fenFindNS(2000, &rng)),
		single("shard.pick_ns_uniform", "ns", pickU),
		single("shard.pick_ns_avail", "ns", pickA),
		single("snapshot.encode_gbps", "GB/s", enc),
		single("snapshot.open_gbps", "GB/s", open),
	}, nil
}

// holdNS is the calendar queue's hold model at a fixed pending-set size:
// pop the earliest event and schedule its successor an exponential delay
// later, as every workload event does.
func holdNS(pending int, rng *xrand.SplitMix64) float64 {
	s := des.NewSchedulerKind(des.Calendar)
	// Schedule fails only on NaN or past times, which exponential delays
	// from the current time cannot produce.
	for i := 0; i < pending; i++ {
		_, _ = s.Schedule(rng.Exponential(1), shard.KindUser, int32(i), 0)
	}
	deliver := func(ev des.Event) { _, _ = s.Schedule(rng.Exponential(1), ev.Kind, ev.Actor, 0) }
	for i := 0; i < pending; i++ { // every event re-scheduled once
		s.Step(deliver)
	}
	const ops = 4096
	return nsPerOp(ops, func() {
		for i := 0; i < ops; i++ {
			s.Step(deliver)
		}
	})
}

// mergeBufAddNS is one in-order outbox append.
func mergeBufAddNS() float64 {
	evs := make([]des.XEvent, 4096)
	for i := range evs {
		evs[i] = des.XEvent{Time: float64(i), Src: int32(i), Dst: int32(i), Amount: 1}
	}
	var b des.MergeBuffer
	return nsPerOp(len(evs), func() {
		b.Reset()
		for _, ev := range evs {
			b.Add(ev)
		}
	})
}

// mergeNS is the loser-tree merge's cost per effect over K=4 canonically
// ordered runs — two lanes' outboxes to two destinations.
func mergeNS(rng *xrand.SplitMix64) float64 {
	const k, total = 4, 1 << 16
	runs := make([][]des.XEvent, k)
	t := 0.0
	for i := 0; i < total; i++ {
		t += rng.Exponential(1)
		r := rng.Intn(k)
		runs[r] = append(runs[r], des.XEvent{Time: t, Src: int32(i), Dst: int32(i), Amount: 1})
	}
	var m des.Merger
	dst := make([]des.XEvent, 0, total)
	return nsPerOp(total, func() {
		dst = m.Merge(dst[:0], runs)
		sink += uint64(len(dst))
	})
}

// fenFindNS is one weighted-sampler descent over a degree-d slab tree.
func fenFindNS(d int, rng *xrand.SplitMix64) float64 {
	tree := make([]float32, d+1)
	for i := 1; i <= d; i++ {
		tree[i] = float32(0.05 + rng.Float64())
	}
	total := float64(xrand.FenBuild(tree))
	us := make([]float64, 1024)
	for i := range us {
		us[i] = rng.Float64() * total
	}
	return nsPerOp(len(us), func() {
		for _, u := range us {
			sink += uint64(xrand.FenFind(tree, u))
		}
	})
}

// pickNS times Lane.PickNeighbor on warm single-lane engines over one
// overlay: uniform routing, and availability routing after 30 churned
// windows have spread the weights. Picks cycle through every peer.
func pickNS(peers int, seed int64) (uniform, avail float64, err error) {
	g, err := topology.ScaleFree(overlayConfig(peers), xrand.New(seed))
	if err != nil {
		return 0, 0, fmt.Errorf("ladder overlay: %w", err)
	}
	pick := func(cfg shard.Config, warm int) (float64, error) {
		w, err := market.NewShard(market.ShardConfig{Mu: 1, Amount: 1})
		if err != nil {
			return 0, err
		}
		cfg.Graph, cfg.Shards, cfg.Horizon, cfg.Seed = g, 1, 20, seed+1
		cfg.InitialWealth, cfg.Queue, cfg.Workload = 20, des.Calendar, w
		e, err := shard.New(cfg)
		if err != nil {
			return 0, fmt.Errorf("ladder engine: %w", err)
		}
		if err := e.Start(); err != nil {
			return 0, fmt.Errorf("ladder engine: %w", err)
		}
		for i := 0; i < warm; i++ {
			e.StepWindow()
		}
		ln := e.Lanes()[0]
		r := xrand.NewSplitMix64(seed, 1)
		at := e.Horizon()
		var peer int32
		const ops = 4096
		return nsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				if nbrs := e.Neighbors(peer); len(nbrs) > 0 {
					sink += uint64(ln.PickNeighbor(at, peer, nbrs, &r))
				}
				if peer++; int(peer) == e.N() {
					peer = 0
				}
			}
		}), nil
	}
	if uniform, err = pick(shard.Config{}, 0); err != nil {
		return 0, 0, err
	}
	avail, err = pick(shard.Config{
		Churn:   shard.ChurnConfig{MeanLifespan: 15, MeanDowntime: 5},
		Routing: shard.RoutingConfig{Mode: shard.RouteAvailability},
	}, 30)
	return uniform, avail, err
}

// snapshotGBps times sealing a words-long payload into a snapshot and
// opening it again (checksum verification plus decode), in GB/s.
func snapshotGBps(words int, rng *xrand.SplitMix64) (enc, open float64, err error) {
	data := make([]uint64, words)
	for i := range data {
		data[i] = rng.Next()
	}
	w := snapshot.NewWriter(8*words + 64)
	var out []byte
	encode := func() {
		w.Reset()
		w.Section("ladder")
		w.U64s(data)
		out = w.Finish()
	}
	encNS := nsPerOp(8*words, encode)
	openNS := nsPerOp(len(out), func() {
		r, e := snapshot.Open(out)
		if e != nil {
			err = e
			return
		}
		r.Section("ladder")
		sink += uint64(len(r.U64s(words)))
		if e := r.Close(); e != nil {
			err = e
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("ladder snapshot: %w", err)
	}
	return 1 / encNS, 1 / openNS, nil
}
