// Package credit implements the virtual-currency machinery of a
// credit-based P2P system (Sec. III): per-peer credit pools with conserving
// transfers, the pricing schemes the paper studies (uniform, per-chunk
// Poisson, linear), the taxation counter-measure of Sec. VI-C, and the
// dynamic spending-rate policy of Sec. VI-D.
//
// The package assumes a trustworthy currency implementation exists (KARMA,
// PPay, lightweight currencies — Sec. II); like the paper, it models the
// economics, not the cryptography.
package credit

import (
	"errors"
	"fmt"
)

// ErrInsufficient is returned when a peer cannot cover a payment — the
// "bankruptcy" state that stalls downloads in a condensed market.
var ErrInsufficient = errors.New("credit: insufficient balance")

// ErrNoAccount is returned for operations on unknown peers.
var ErrNoAccount = errors.New("credit: no such account")

// ErrBadAmount is returned for negative transfer amounts.
var ErrBadAmount = errors.New("credit: invalid amount")

// noAccount marks a free ledger slot.
const noAccount = int64(-1) << 62

// Ledger tracks integer credit balances for a set of peers. Transfers
// conserve the total supply; Mint and Burn (peer join/departure under
// churn) are the only operations that change it. Ledger is not safe for
// concurrent use: simulations are single-threaded by design.
//
// Balances live in a dense slot array; peer ids are interned to slots at
// Open and resolved through a map only on the id-keyed API. Hot simulation
// loops should intern once via Slot and then use the *At methods, which are
// plain array operations with no hashing or allocation.
type Ledger struct {
	index  map[int]int32 // peer id -> slot
	ids    []int         // slot -> peer id (valid only when open)
	bal    []int64       // slot -> balance; noAccount marks a free slot
	free   []int32       // recycled slots
	total  int64
	minted int64
	burned int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{index: make(map[int]int32)}
}

// Open creates an account with the given initial balance (minting it).
func (l *Ledger) Open(peer int, initial int64) error {
	_, err := l.OpenSlot(peer, initial)
	return err
}

// OpenSlot creates an account and returns its dense slot for use with the
// *At fast-path methods. Slots are stable for the lifetime of the account
// and recycled after Close.
func (l *Ledger) OpenSlot(peer int, initial int64) (int32, error) {
	if initial < 0 {
		return 0, fmt.Errorf("%w: initial %d", ErrBadAmount, initial)
	}
	if _, ok := l.index[peer]; ok {
		return 0, fmt.Errorf("credit: account %d already open", peer)
	}
	var slot int32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.ids = append(l.ids, 0)
		l.bal = append(l.bal, 0)
		slot = int32(len(l.bal) - 1)
	}
	l.ids[slot] = peer
	l.bal[slot] = initial
	l.index[peer] = slot
	l.total += initial
	l.minted += initial
	return slot, nil
}

// Close removes an account and burns whatever it held (a departing peer
// takes its credits out of the economy, Sec. VI-E). It returns the burned
// amount. The slot is recycled; stale slots must not be used afterwards.
func (l *Ledger) Close(peer int) (int64, error) {
	slot, ok := l.index[peer]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoAccount, peer)
	}
	b := l.bal[slot]
	delete(l.index, peer)
	l.bal[slot] = noAccount
	l.free = append(l.free, slot)
	l.total -= b
	l.burned += b
	return b, nil
}

// Balance returns a peer's balance.
func (l *Ledger) Balance(peer int) (int64, error) {
	slot, ok := l.index[peer]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoAccount, peer)
	}
	return l.bal[slot], nil
}

// BalanceAt returns the balance of an open slot without hashing. The slot
// must have come from OpenSlot/Slot and not have been closed since.
func (l *Ledger) BalanceAt(slot int32) int64 { return l.bal[slot] }

// Has reports whether the account exists.
func (l *Ledger) Has(peer int) bool {
	_, ok := l.index[peer]
	return ok
}

// Transfer moves amount credits from payer to payee. It fails with
// ErrInsufficient when the payer cannot cover it; zero-amount transfers are
// legal no-ops (free chunks under Poisson pricing).
func (l *Ledger) Transfer(payer, payee int, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, amount)
	}
	from, ok := l.index[payer]
	if !ok {
		return fmt.Errorf("%w: payer %d", ErrNoAccount, payer)
	}
	to, ok := l.index[payee]
	if !ok {
		return fmt.Errorf("%w: payee %d", ErrNoAccount, payee)
	}
	if l.bal[from] < amount {
		return fmt.Errorf("%w: peer %d has %d, needs %d", ErrInsufficient, payer, l.bal[from], amount)
	}
	l.bal[from] -= amount
	l.bal[to] += amount
	return nil
}

// TransferAt moves amount credits between open slots — the conserving
// fast path. It performs no hashing and allocates only when building the
// ErrInsufficient error.
func (l *Ledger) TransferAt(from, to int32, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, amount)
	}
	if l.bal[from] < amount {
		return fmt.Errorf("%w: peer %d has %d, needs %d", ErrInsufficient, l.ids[from], l.bal[from], amount)
	}
	l.bal[from] -= amount
	l.bal[to] += amount
	return nil
}

// TryTransferAt moves amount credits between open slots, reporting success.
// It is the allocation-free variant of TransferAt for hot loops that treat
// an insufficient balance as a normal outcome rather than an error.
func (l *Ledger) TryTransferAt(from, to int32, amount int64) bool {
	if amount < 0 || l.bal[from] < amount {
		return false
	}
	l.bal[from] -= amount
	l.bal[to] += amount
	return true
}

// Deposit mints amount credits into a peer's account (credit injection).
func (l *Ledger) Deposit(peer int, amount int64) error {
	slot, ok := l.index[peer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoAccount, peer)
	}
	if amount < 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, amount)
	}
	l.bal[slot] += amount
	l.total += amount
	l.minted += amount
	return nil
}

// DepositAt mints amount credits into an open slot.
func (l *Ledger) DepositAt(slot int32, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, amount)
	}
	l.bal[slot] += amount
	l.total += amount
	l.minted += amount
	return nil
}

// Withdraw burns amount credits from a peer's account.
func (l *Ledger) Withdraw(peer int, amount int64) error {
	slot, ok := l.index[peer]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoAccount, peer)
	}
	if amount < 0 {
		return fmt.Errorf("%w: %d", ErrBadAmount, amount)
	}
	if l.bal[slot] < amount {
		return fmt.Errorf("%w: peer %d has %d, withdrawing %d", ErrInsufficient, peer, l.bal[slot], amount)
	}
	l.bal[slot] -= amount
	l.total -= amount
	l.burned += amount
	return nil
}

// Total returns the current credit supply.
func (l *Ledger) Total() int64 { return l.total }

// Minted returns the cumulative credits ever created.
func (l *Ledger) Minted() int64 { return l.minted }

// Burned returns the cumulative credits ever destroyed.
func (l *Ledger) Burned() int64 { return l.burned }

// NumAccounts returns the number of open accounts.
func (l *Ledger) NumAccounts() int { return len(l.index) }

// Balances returns a copy of all balances keyed by peer id.
func (l *Ledger) Balances() map[int]int64 {
	out := make(map[int]int64, len(l.index))
	for id, slot := range l.index {
		out[id] = l.bal[slot]
	}
	return out
}

// BalanceVector returns balances for the given peers in order.
func (l *Ledger) BalanceVector(peers []int) ([]int64, error) {
	out := make([]int64, len(peers))
	for i, p := range peers {
		slot, ok := l.index[p]
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrNoAccount, p)
		}
		out[i] = l.bal[slot]
	}
	return out, nil
}

// CheckConservation verifies the supply invariant: the sum of balances
// equals minted - burned. It returns an error describing any mismatch —
// expected vs. actual totals, the size of the discrepancy, and the first
// offending account; the simulators assert it after every run.
func (l *Ledger) CheckConservation() error {
	var sum int64
	open := 0
	for slot, b := range l.bal {
		if b == noAccount {
			continue
		}
		if b < 0 {
			return fmt.Errorf("credit: account %d (slot %d) has negative balance %d; balances must stay non-negative", l.ids[slot], slot, b)
		}
		sum += b
		open++
	}
	if open != len(l.index) {
		return fmt.Errorf("credit: %d open slots != %d indexed accounts (off by %+d)", open, len(l.index), open-len(l.index))
	}
	if sum != l.total {
		return fmt.Errorf("credit: balances across %d accounts sum to %d, but the tracked total is %d (off by %+d credits)", open, sum, l.total, sum-l.total)
	}
	if want := l.minted - l.burned; l.total != want {
		return fmt.Errorf("credit: tracked total %d != minted %d - burned %d = %d (off by %+d credits)", l.total, l.minted, l.burned, want, l.total-want)
	}
	return nil
}
