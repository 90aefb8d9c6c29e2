package sim

import (
	"fmt"

	"creditp2p/internal/stats"
)

// The kernel's mid-run audit lives with its tests: FuzzKernelConservation
// and the kernel tests call it, and no production path does.

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
// sorting reference (bit-identical by contract). It returns errors,
// never panics.
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
		var bals []int64
		for px := range k.Peers.peers {
			if p := &k.Peers.peers[px]; p.Alive {
				bals = append(bals, k.Ledger.BalanceAt(p.Acct))
			}
		}
		gExact, _, err := stats.GiniIntsInPlace(bals, nil)
		if err != nil {
			return fmt.Errorf("sim: audit: exact Gini: %w", err)
		}
		if gHist != gExact {
			return fmt.Errorf("sim: audit: histogram Gini %v != exact Gini %v over %d live peers", gHist, gExact, len(bals))
		}
	}
	return nil
}
