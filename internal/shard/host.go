package shard

import "creditp2p/internal/xrand"

// engineHost adapts the sharded engine to the policy.Host surface. Every
// policy hook runs on the coordinator at a window barrier — the merged
// canonical effect pass, the lifecycle pass, and the quantized epoch pass
// — so host methods may touch any peer's state single-threaded, exactly
// like the single-threaded kernels' hosts. Virtual time is the barrier
// time: policy actions land at effect-visibility granularity, which is
// the sharded model's definition of "now".
type engineHost struct {
	e *Engine
}

// Now returns the current barrier time.
func (h *engineHost) Now() float64 { return h.e.bNow }

// Running reports whether the run has started (false during the initial
// population's join pass, matching the single-threaded kernels).
func (h *engineHost) Running() bool { return h.e.running }

// RNG is the coordinator's policy stream, drawn only at barriers in
// deterministic order — shard-count-invariant by construction.
func (h *engineHost) RNG() *xrand.RNG { return h.e.polRNG }

// Live returns the live-peer count.
func (h *engineHost) Live() int {
	live := 0
	for _, ln := range h.e.lanes {
		live += ln.liveN
	}
	return live
}

// Peers returns the dense table length.
func (h *engineHost) Peers() int { return h.e.n }

// Alive reports peer px's current liveness (barrier-exact, not the epoch
// bitmap: at a barrier the two coincide for every peer).
func (h *engineHost) Alive(px int32) bool { return h.e.flags[px]&aliveBit != 0 }

// Balance returns peer px's balance.
func (h *engineHost) Balance(px int32) int64 { return h.e.bal[px] }

// PotBalance returns the shared pot.
func (h *engineHost) PotBalance() int64 { return h.e.pot }

// laneOf resolves the lane owning peer px.
func (e *Engine) laneOf(px int32) *Lane { return e.lanes[e.part.ShardOf(px)] }

// Collect moves amount credits from a live peer into the pot.
func (h *engineHost) Collect(px int32, amount int64) bool {
	e := h.e
	if amount < 0 || e.flags[px]&aliveBit == 0 || e.bal[px] < amount {
		return false
	}
	ln := e.laneOf(px)
	pre := e.bal[px]
	e.bal[px] = pre - amount
	ln.hist.Move(pre, pre-amount)
	ln.supply -= amount
	e.pot += amount
	return true
}

// Pay moves amount credits from the pot to a live peer. The sharded
// workloads are open-loop (no idle-sleep to wake), so payment is pure
// ledger movement.
func (h *engineHost) Pay(px int32, amount int64) bool {
	e := h.e
	if amount < 0 || e.flags[px]&aliveBit == 0 || e.pot < amount {
		return false
	}
	ln := e.laneOf(px)
	pre := e.bal[px]
	e.bal[px] = pre + amount
	ln.hist.Move(pre, pre+amount)
	ln.supply += amount
	e.pot -= amount
	return true
}

// Mint creates amount fresh credits in a live peer's account.
func (h *engineHost) Mint(px int32, amount int64) bool {
	e := h.e
	if amount < 0 || e.flags[px]&aliveBit == 0 {
		return false
	}
	ln := e.laneOf(px)
	pre := e.bal[px]
	e.bal[px] = pre + amount
	ln.hist.Move(pre, pre+amount)
	ln.supply += amount
	ln.minted += amount
	return true
}

// Gini returns the exact wealth Gini over live peers.
func (h *engineHost) Gini() (float64, bool) { return h.e.giniNow() }
