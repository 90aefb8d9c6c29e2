package shard

import (
	"fmt"
	"time"

	"creditp2p/internal/snapshot"
)

// Checkpointer drives periodic low-stall checkpoints of a sharded run:
// per-lane sections encode in parallel into recycled fragment buffers at
// the barrier, and the seal (CRC) plus sink write happen on a background
// writer goroutine while the simulation runs the next windows. The
// barrier-visible stall is just wait-for-previous-write plus the parallel
// fragment encode; with deltas enabled the encode itself shrinks to the
// dirty segments.
//
// The write pipeline is one deep: staging checkpoint k+1 waits for write
// k to finish (backpressure — the recycled buffers are reused, and link
// k+1's header needs link k's sealed CRC). Every produced file is a
// complete CP2PSNAP snapshot; deltas chain to their base by (id, index,
// predecessor CRC), and RestoreChain replays them.

// CheckpointOptions configures a Checkpointer.
type CheckpointOptions struct {
	// Delta enables dirty-segment delta checkpoints between bases. Off,
	// every checkpoint is a full base snapshot (still parallel-encoded and
	// overlap-written).
	Delta bool
	// RebaseEvery bounds the chain length: after this many deltas the next
	// checkpoint is a fresh base. 0 means the default of 16. The chain is
	// also re-based early when a delta outgrows MaxDeltaFraction of the
	// base (dirty tracking no longer pays) and when some other capture
	// cleared the dirty maps mid-chain.
	RebaseEvery int
	// MaxDeltaFraction is the sealed-delta-size-to-base-size ratio above
	// which the chain re-bases early. 0 means the default of 0.5; set it
	// large to pin exact chain shapes (tests) or for workloads whose
	// deltas legitimately approach the base size.
	MaxDeltaFraction float64
}

// CheckpointStats counts a checkpointer's output.
type CheckpointStats struct {
	// Checkpoints is the total number of checkpoints taken.
	Checkpoints uint64
	// Bases / Deltas split Checkpoints by link kind.
	Bases, Deltas uint64
	// BaseBytes / DeltaBytes total the sealed sizes per kind.
	BaseBytes, DeltaBytes uint64
}

const defaultRebaseEvery = 16

// writeResult is what the writer goroutine reports back per link.
type writeResult struct {
	crc    uint64
	sealed []byte // recycled seal buffer, handed back for reuse
	encode time.Duration
	write  time.Duration
	err    error
}

// Checkpointer owns the recycled encode state and the single-slot write
// pipeline. Not safe for concurrent use; call Checkpoint only at window
// barriers and Close before reading the run's results.
type Checkpointer struct {
	e    *Engine
	sink snapshot.ChainSink
	opt  CheckpointOptions

	enc *encoder // recycled fragments

	sealBuf []byte // recycled seal target, owned by the in-flight write

	chainIdx  int // next link index; 0 means the next checkpoint is a base
	baseID    uint64
	prevCRC   uint64
	baseBytes int    // sealed size of the current base
	lastGen   uint64 // engine captureGen this chain's dirty state is relative to

	inflight chan writeResult // nil when no write is pending

	stats CheckpointStats
}

// NewCheckpointer builds a checkpointer over e writing to sink.
func NewCheckpointer(e *Engine, sink snapshot.ChainSink, opt CheckpointOptions) *Checkpointer {
	if opt.RebaseEvery <= 0 {
		opt.RebaseEvery = defaultRebaseEvery
	}
	if opt.MaxDeltaFraction <= 0 {
		opt.MaxDeltaFraction = 0.5
	}
	return &Checkpointer{e: e, sink: sink, opt: opt, enc: newEncoder(e.p)}
}

// Stats returns the checkpoint counters so far.
func (c *Checkpointer) Stats() CheckpointStats { return c.stats }

// wait drains the in-flight write, folding its timing into the engine's
// breakdown and adopting its CRC as the next link's predecessor.
func (c *Checkpointer) wait() error {
	if c.inflight == nil {
		return nil
	}
	res := <-c.inflight
	c.inflight = nil
	c.sealBuf = res.sealed
	c.e.timings.CkptEncode += res.encode
	c.e.timings.CkptWrite += res.write
	if res.err != nil {
		return res.err
	}
	c.prevCRC = res.crc
	return nil
}

// Checkpoint captures the engine's state at the current window barrier
// and hands the write to the background writer. The error reported is
// from the PREVIOUS link's write (this link's surfaces at the next call
// or at Close); an error leaves the chain position unchanged so the next
// attempt re-bases cleanly.
func (c *Checkpointer) Checkpoint() error {
	e := c.e
	t0 := time.Now()
	if err := c.wait(); err != nil {
		c.chainIdx = 0 // broken chain on disk; start fresh
		return err
	}
	t1 := time.Now()
	e.timings.CkptWait += t1.Sub(t0)

	isBase := !c.opt.Delta || c.chainIdx == 0 || c.chainIdx > c.opt.RebaseEvery ||
		e.captureGen != c.lastGen
	link := snapshot.LinkHeader{
		Kind:    snapshot.LinkDelta,
		ID:      c.baseID,
		Index:   uint32(c.chainIdx),
		PrevCRC: c.prevCRC,
	}
	if isBase {
		c.baseID = e.snapID()
		link = snapshot.LinkHeader{Kind: snapshot.LinkBase, ID: c.baseID}
	}

	// Stage: encode into the recycled fragments — lanes in parallel, the
	// coordinator taking the shared section. A base carries
	// every segment, a delta the dirty ones. This is the only part the
	// simulation stalls for besides the pipeline wait.
	parts := c.enc.encode(e, link)
	c.lastGen = e.captureGen
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	e.timings.CkptCopy += time.Since(t1)

	// Hand off: seal (streaming CRC over the fragments) and the sink
	// write run concurrently with the next simulation windows. A forced
	// re-base (chain bound hit, foreign capture) leaves chainIdx nonzero,
	// so route by the link's index (0 for every base), not the chain
	// position.
	index := int(link.Index)
	res := make(chan writeResult, 1)
	c.inflight = res
	go func(parts [][]byte, dst []byte, sink snapshot.ChainSink, index int) {
		var r writeResult
		tE := time.Now()
		sealed, crc := snapshot.Seal(dst, parts)
		r.crc = crc
		r.sealed = sealed
		tW := time.Now()
		r.encode = tW.Sub(tE)
		if index == 0 {
			r.err = sink.WriteBase(sealed)
		} else {
			r.err = sink.WriteDelta(index, sealed)
		}
		r.write = time.Since(tW)
		res <- r
	}(parts, c.sealBuf, c.sink, index)
	c.sealBuf = nil // owned by the writer until wait()

	c.stats.Checkpoints++
	e.timings.Checkpoints++
	if isBase {
		c.stats.Bases++
		c.stats.BaseBytes += uint64(size)
		c.baseBytes = size
		c.chainIdx = 1
	} else {
		c.stats.Deltas++
		c.stats.DeltaBytes += uint64(size)
		c.chainIdx++
		if float64(size) > float64(c.baseBytes)*c.opt.MaxDeltaFraction {
			// Dirty tracking stopped paying; anchor a fresh base next time.
			c.chainIdx = 0
		}
	}
	return nil
}

// Close drains the write pipeline, surfacing the last link's write error.
// The checkpointer stays usable (the next Checkpoint starts a new chain
// on error, continues the current one otherwise).
func (c *Checkpointer) Close() error {
	if err := c.wait(); err != nil {
		c.chainIdx = 0
		return fmt.Errorf("shard: checkpoint write: %w", err)
	}
	return nil
}
