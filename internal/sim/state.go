package sim

import (
	"fmt"

	"creditp2p/internal/des"
	"creditp2p/internal/stats"
)

// --- single-event stepping ---

// Step delivers the next pending event within the horizon, reporting
// whether one fired. for k.Step() {} followed by k.SealTime() is
// byte-identical to k.Run(); the fault-injection harness uses it to audit
// the kernel between events.
func (k *Kernel) Step() bool {
	return k.Sched.StepUntil(k.cfg.Horizon, k.dispatch)
}

// SealTime advances virtual time to the horizon after the last event — the
// epilogue Run performs implicitly.
func (k *Kernel) SealTime() {
	k.Sched.FinishAt(k.cfg.Horizon)
}

// --- fault injection surface ---

// FaultInjector intercepts kernel operations for deterministic fault
// injection (internal/fault). Both hooks fire before any state is mutated,
// so an injected fault leaves every invariant intact — the economy degrades
// (failed transfers, lost workload events), it never corrupts.
type FaultInjector interface {
	// FailTransfer, returning true, makes a peer-to-peer transfer fail as
	// if the payer were insolvent.
	FailTransfer(now float64, from, to int32, amount int64) bool
	// DropEvent, returning true, silently discards a workload event
	// (kind >= KindUser) before dispatch. Kernel-owned recurring streams
	// (ticks, samples, policy epochs) are never offered.
	DropEvent(ev des.Event) bool
}

// SetFaultInjector registers (or, with nil, clears) the fault injector.
func (k *Kernel) SetFaultInjector(fi FaultInjector) { k.fault = fi }

// --- peer table integrity ---

// CheckIntegrity audits the slab bookkeeping: the live counter, the free
// list (exactly the dead slots, no duplicates), and the interning table's
// agreement with the slab.
func (t *PeerTable) CheckIntegrity() error {
	liveCount := 0
	for px := range t.peers {
		p := &t.peers[px]
		if p.Alive {
			liveCount++
			if got := t.PxOf(int(p.ID)); got != int32(px) {
				return fmt.Errorf("sim: peer table id %d interns to px %d, but slot %d claims it", p.ID, got, px)
			}
		}
	}
	if liveCount != t.live {
		return fmt.Errorf("sim: peer table live counter %d but %d slots are alive", t.live, liveCount)
	}
	if len(t.free)+liveCount != len(t.peers) {
		return fmt.Errorf("sim: peer table free list holds %d slots, want %d (slab %d - live %d)", len(t.free), len(t.peers)-liveCount, len(t.peers), liveCount)
	}
	seen := make(map[int32]bool, len(t.free))
	for _, px := range t.free {
		if px < 0 || int(px) >= len(t.peers) {
			return fmt.Errorf("sim: peer table free list references slot %d outside the %d-slot slab", px, len(t.peers))
		}
		if seen[px] {
			return fmt.Errorf("sim: peer table slot %d appears twice in the free list", px)
		}
		seen[px] = true
		if t.peers[px].Alive {
			return fmt.Errorf("sim: peer table free-listed slot %d is alive", px)
		}
	}
	return nil
}

// --- periodic invariant auditor ---

// Audit verifies the run's invariants mid-run: credit conservation,
// scheduler and peer-table slab/free-list integrity, the balance
// histogram's sync with the ledger, and its Gini's agreement with the
// sorting reference (bit-identical by contract). The fault-injection
// harness calls it periodically; it returns errors, never panics.
func (k *Kernel) Audit() error {
	if err := k.Ledger.CheckConservation(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.Sched.CheckIntegrity(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.Peers.CheckIntegrity(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if err := k.checkHist(); err != nil {
		return fmt.Errorf("sim: audit: %w", err)
	}
	if gHist, ok := k.GiniNow(); ok {
		bals := k.balanceVector()
		gExact, buf, err := stats.GiniIntsInPlace(bals, k.Metrics.wealthBuf)
		k.Metrics.wealthBuf = buf
		if err != nil {
			return fmt.Errorf("sim: audit: exact Gini: %w", err)
		}
		if gHist != gExact {
			return fmt.Errorf("sim: audit: histogram Gini %v != exact Gini %v over %d live peers", gHist, gExact, len(bals))
		}
	}
	return nil
}
