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
// fragment encode.
//
// Every checkpoint is a base: a complete CP2PSNAP snapshot that restores
// on its own through RestoreChain. The write pipeline is one deep:
// staging checkpoint k+1 waits for write k to finish (backpressure — the
// recycled buffers are reused).

// CheckpointOptions configures a Checkpointer. No setting is left: it
// remains so existing callers compile.
type CheckpointOptions struct {
	// Delta selects nothing: every checkpoint is a base.
	//
	// Deprecated: delta checkpoints were removed; the field remains only
	// so existing callers compile.
	Delta bool
}

// CheckpointStats counts a checkpointer's output.
type CheckpointStats struct {
	// Bases counts the checkpoints taken; every one is a base.
	Bases uint64
	// BaseBytes totals the sealed sizes, checksum trailers included.
	BaseBytes uint64
	// Deltas and DeltaBytes always read zero.
	//
	// Deprecated: delta checkpoints were removed; the fields remain only
	// so existing callers compile.
	Deltas, DeltaBytes uint64
}

// writeResult is what the writer goroutine reports back per base.
type writeResult struct {
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

	enc *encoder // recycled fragments

	sealBuf []byte // recycled seal target, owned by the in-flight write

	inflight chan writeResult // nil when no write is pending

	stats CheckpointStats
}

// NewCheckpointer builds a checkpointer over e writing to sink. The
// options select nothing.
func NewCheckpointer(e *Engine, sink snapshot.ChainSink, _ CheckpointOptions) *Checkpointer {
	return &Checkpointer{e: e, sink: sink, enc: newEncoder(e)}
}

// Stats returns the checkpoint counters so far.
func (c *Checkpointer) Stats() CheckpointStats { return c.stats }

// wait drains the in-flight write, folding its timing into the engine's
// breakdown.
func (c *Checkpointer) wait() error {
	if c.inflight == nil {
		return nil
	}
	res := <-c.inflight
	c.inflight = nil
	c.sealBuf = res.sealed
	c.e.timings.CkptEncode += res.encode
	c.e.timings.CkptWrite += res.write
	return res.err
}

// Checkpoint captures the engine's state at the current window barrier
// and hands the write to the background writer. The error reported is
// from the PREVIOUS base's write (this one's surfaces at the next call or
// at Close).
func (c *Checkpointer) Checkpoint() error {
	e := c.e
	t0 := time.Now()
	if err := c.wait(); err != nil {
		return err
	}
	t1 := time.Now()
	e.timings.CkptWait += t1.Sub(t0)

	// Stage: encode into the recycled fragments — lanes in parallel, the
	// coordinator taking the shared section. This is the only part the
	// simulation stalls for besides the pipeline wait.
	parts := c.enc.encode(e)
	e.timings.CkptCopy += time.Since(t1)

	// Hand off: seal (streaming CRC over the fragments) and the sink
	// write run concurrently with the next simulation windows.
	res := make(chan writeResult, 1)
	c.inflight = res
	go func(parts [][]byte, dst []byte, sink snapshot.ChainSink) {
		var r writeResult
		tE := time.Now()
		r.sealed = snapshot.Seal(dst, parts)
		tW := time.Now()
		r.encode = tW.Sub(tE)
		r.err = sink.WriteBase(r.sealed)
		r.write = time.Since(tW)
		res <- r
	}(parts, c.sealBuf, c.sink)
	c.sealBuf = nil // owned by the writer until wait()

	c.stats.Bases++
	c.stats.BaseBytes += uint64(snapshot.SealedLen(parts))
	e.timings.Checkpoints++
	return nil
}

// Close drains the write pipeline, surfacing the last base's write error.
// The checkpointer stays usable.
func (c *Checkpointer) Close() error {
	if err := c.wait(); err != nil {
		return fmt.Errorf("shard: checkpoint write: %w", err)
	}
	return nil
}
