package credit

import (
	"fmt"
	"sort"

	"creditp2p/internal/snapshot"
)

// SaveState serializes the ledger: dense slots (ids and balances, free
// slots marked by the noAccount sentinel), the free list, and the supply
// counters. The id->slot index is derived state and is rebuilt on load.
func (l *Ledger) SaveState(w *snapshot.Writer) {
	w.Section("ledger")
	ids := make([]int64, len(l.ids))
	for i, id := range l.ids {
		ids[i] = int64(id)
	}
	w.I64s(ids)
	w.I64s(l.bal)
	w.I32s(l.free)
	w.I64(l.total)
	w.I64(l.minted)
	w.I64(l.burned)
}

// LoadState restores a ledger serialized by SaveState. maxAccounts, when
// positive, bounds the accepted slot count — the restore-side guard against
// a snapshot that declares more state than the caller budgeted for.
func (l *Ledger) LoadState(r *snapshot.Reader, maxAccounts int) error {
	r.Section("ledger")
	ids := r.I64s(maxAccounts)
	bal := r.I64s(maxAccounts)
	free := r.I32s(maxAccounts)
	total := r.I64()
	minted := r.I64()
	burned := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if len(ids) != len(bal) {
		return fmt.Errorf("credit: ledger id/balance slot counts disagree (%d/%d)", len(ids), len(bal))
	}
	l.ids = make([]int, len(ids))
	index := make(map[int]int32, len(ids))
	for i, id := range ids {
		l.ids[i] = int(id)
		if bal[i] != noAccount {
			index[int(id)] = int32(i)
		}
	}
	l.bal = bal
	l.free = free
	l.index = index
	l.total = total
	l.minted = minted
	l.burned = burned
	return nil
}

// SaveState serializes the scheme's RNG position and memoized prices (in
// chunk-id order, so equal states produce equal bytes).
func (p *PoissonPricing) SaveState(w *snapshot.Writer) {
	w.Section("poisson-pricing")
	p.rng.SaveState(w)
	keys := make([]int, 0, len(p.memo))
	for k := range p.memo {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		w.I64(p.memo[k])
	}
}

// LoadState restores the state serialized by SaveState.
func (p *PoissonPricing) LoadState(r *snapshot.Reader) {
	r.Section("poisson-pricing")
	p.rng.LoadState(r)
	n := r.Int()
	if r.Err() != nil || n < 0 || n > r.Remaining()/16 {
		return
	}
	p.memo = make(map[int]int64, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		p.memo[k] = r.I64()
	}
}

// SaveState serializes the per-seller sold counters in seller order.
func (p *LinearPricing) SaveState(w *snapshot.Writer) {
	w.Section("linear-pricing")
	keys := make([]int, 0, len(p.sold))
	for k := range p.sold {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
		w.I64(p.sold[k])
	}
}

// LoadState restores the counters serialized by SaveState.
func (p *LinearPricing) LoadState(r *snapshot.Reader) {
	r.Section("linear-pricing")
	n := r.Int()
	if r.Err() != nil || n < 0 || n > r.Remaining()/16 {
		return
	}
	p.sold = make(map[int]int64, n)
	for i := 0; i < n; i++ {
		k := r.Int()
		p.sold[k] = r.I64()
	}
}
