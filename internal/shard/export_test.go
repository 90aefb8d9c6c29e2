package shard

// PendingHandle exposes peer g's pending-handle word, so tests can craft
// checkpoints whose handles disagree with the queued events.
func (e *Engine) PendingHandle(g int32) *uint64 { return &e.pend[g] }
