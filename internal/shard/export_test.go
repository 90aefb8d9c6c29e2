package shard

import "creditp2p/internal/xrand"

// PendingHandle exposes peer g's pending-handle word, so tests can craft
// checkpoints whose handles disagree with the queued events.
func (e *Engine) PendingHandle(g int32) *uint64 { return &e.pend[g] }

// HeavyRouting is a routing config whose heavy-hitter threshold is heavy
// instead of the default, so small test overlays reach the barrier-patch
// path (heavy=1 patches nearly every tree) or keep every tree light.
func HeavyRouting(mode Routing, heavy int) RoutingConfig {
	return RoutingConfig{Mode: mode, heavyDegree: heavy}
}

// PolicyRNG exposes the policy stream, so tests can move it to positions
// a long taxed run reaches.
func (e *Engine) PolicyRNG() *xrand.RNG { return e.polRNG }
