package credit

import (
	"errors"
	"testing"
	"testing/quick"

	"creditp2p/internal/xrand"
)

func openN(t *testing.T, n int, initial int64) *Ledger {
	t.Helper()
	l := NewLedger()
	for i := 0; i < n; i++ {
		if err := l.Open(i, initial); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestOpenAndBalance(t *testing.T) {
	l := openN(t, 3, 100)
	b, err := l.Balance(1)
	if err != nil {
		t.Fatal(err)
	}
	if b != 100 {
		t.Errorf("balance = %d, want 100", b)
	}
	if l.Total() != 300 {
		t.Errorf("total = %d, want 300", l.Total())
	}
	if err := l.Open(1, 5); err == nil {
		t.Error("duplicate open accepted")
	}
	if err := l.Open(9, -1); !errors.Is(err, ErrBadAmount) {
		t.Errorf("negative initial error = %v", err)
	}
	if _, err := l.Balance(99); !errors.Is(err, ErrNoAccount) {
		t.Errorf("unknown account error = %v", err)
	}
}

func TestTransfer(t *testing.T) {
	l := openN(t, 2, 10)
	if err := l.Transfer(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	b0, _ := l.Balance(0)
	b1, _ := l.Balance(1)
	if b0 != 6 || b1 != 14 {
		t.Errorf("balances = %d/%d, want 6/14", b0, b1)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestTransferErrors(t *testing.T) {
	l := openN(t, 2, 3)
	if err := l.Transfer(0, 1, 5); !errors.Is(err, ErrInsufficient) {
		t.Errorf("overdraft error = %v, want ErrInsufficient", err)
	}
	if err := l.Transfer(0, 1, -1); !errors.Is(err, ErrBadAmount) {
		t.Errorf("negative error = %v, want ErrBadAmount", err)
	}
	if err := l.Transfer(5, 1, 1); !errors.Is(err, ErrNoAccount) {
		t.Errorf("unknown payer error = %v", err)
	}
	if err := l.Transfer(0, 5, 1); !errors.Is(err, ErrNoAccount) {
		t.Errorf("unknown payee error = %v", err)
	}
	// Failed transfers leave balances untouched.
	b0, _ := l.Balance(0)
	b1, _ := l.Balance(1)
	if b0 != 3 || b1 != 3 {
		t.Errorf("balances changed on failed transfers: %d/%d", b0, b1)
	}
}

func TestZeroTransferIsNoop(t *testing.T) {
	l := openN(t, 2, 0)
	if err := l.Transfer(0, 1, 0); err != nil {
		t.Errorf("zero transfer from empty account failed: %v", err)
	}
}

func TestCloseBurnsBalance(t *testing.T) {
	l := openN(t, 2, 50)
	burned, err := l.Close(0)
	if err != nil {
		t.Fatal(err)
	}
	if burned != 50 {
		t.Errorf("burned = %d, want 50", burned)
	}
	if l.Total() != 50 {
		t.Errorf("total = %d, want 50", l.Total())
	}
	if l.Has(0) {
		t.Error("closed account still present")
	}
	if _, err := l.Close(0); !errors.Is(err, ErrNoAccount) {
		t.Errorf("double close error = %v", err)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestDepositWithdraw(t *testing.T) {
	l := openN(t, 1, 10)
	if err := l.Deposit(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.Withdraw(0, 12); err != nil {
		t.Fatal(err)
	}
	b, _ := l.Balance(0)
	if b != 3 {
		t.Errorf("balance = %d, want 3", b)
	}
	if l.Minted() != 15 || l.Burned() != 12 {
		t.Errorf("minted/burned = %d/%d, want 15/12", l.Minted(), l.Burned())
	}
	if err := l.Withdraw(0, 10); !errors.Is(err, ErrInsufficient) {
		t.Errorf("over-withdraw error = %v", err)
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestBalanceVector(t *testing.T) {
	l := openN(t, 3, 7)
	v, err := l.BalanceVector([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 || v[0] != 7 || v[1] != 7 {
		t.Errorf("vector = %v", v)
	}
	if _, err := l.BalanceVector([]int{9}); !errors.Is(err, ErrNoAccount) {
		t.Errorf("unknown id error = %v", err)
	}
}

func TestBalancesIsCopy(t *testing.T) {
	l := openN(t, 1, 5)
	m := l.Balances()
	m[0] = 999
	b, _ := l.Balance(0)
	if b != 5 {
		t.Error("Balances exposed internal map")
	}
}

func TestConservationProperty(t *testing.T) {
	// Random walks of operations preserve conservation and non-negativity.
	f := func(seed int64, steps uint8) bool {
		r := xrand.New(seed)
		l := NewLedger()
		for i := 0; i < 5; i++ {
			if err := l.Open(i, int64(r.Intn(50))); err != nil {
				return false
			}
		}
		for s := 0; s < int(steps); s++ {
			a, b := r.Intn(5), r.Intn(5)
			amount := int64(r.Intn(30))
			switch r.Intn(4) {
			case 0:
				if a != b {
					// May legitimately fail on overdraft; conservation must
					// hold either way.
					_ = l.Transfer(a, b, amount)
				}
			case 1:
				if l.Has(a) {
					_ = l.Deposit(a, amount)
				}
			case 2:
				if l.Has(a) {
					_ = l.Withdraw(a, amount)
				}
			case 3:
				// Close and reopen to exercise churn.
				if l.Has(a) && l.NumAccounts() > 2 {
					if _, err := l.Close(a); err != nil {
						return false
					}
				} else if !l.Has(a) {
					if err := l.Open(a, amount); err != nil {
						return false
					}
				}
			}
			if err := l.CheckConservation(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- dense slot fast path ---

func TestSlotFastPathMatchesMapAPI(t *testing.T) {
	l := NewLedger()
	sa, err := l.OpenSlot(7, 50)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := l.OpenSlot(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.TransferAt(sa, sb, 15); err != nil {
		t.Fatal(err)
	}
	if b, _ := l.Balance(7); b != 35 || l.BalanceAt(sa) != 35 {
		t.Errorf("payer balance = %d/%d, want 35", l.BalanceAt(sa), b)
	}
	if b, _ := l.Balance(9); b != 25 || l.BalanceAt(sb) != 25 {
		t.Errorf("payee balance = %d/%d, want 25", l.BalanceAt(sb), b)
	}
	if err := l.TransferAt(sa, sb, 100); !errors.Is(err, ErrInsufficient) {
		t.Errorf("overdraft error = %v, want ErrInsufficient", err)
	}
	if err := l.TransferAt(sa, sb, -1); !errors.Is(err, ErrBadAmount) {
		t.Errorf("negative amount error = %v, want ErrBadAmount", err)
	}
	if err := l.DepositAt(sb, 5); err != nil {
		t.Fatal(err)
	}
	if l.BalanceAt(sb) != 30 || l.Total() != 65 {
		t.Errorf("after deposit: balance %d total %d, want 30/65", l.BalanceAt(sb), l.Total())
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
	if _, err := l.Balance(99); !errors.Is(err, ErrNoAccount) {
		t.Errorf("Balance(99) error = %v, want ErrNoAccount", err)
	}
}

func TestTryTransferAt(t *testing.T) {
	l := NewLedger()
	sa, _ := l.OpenSlot(0, 3)
	sb, _ := l.OpenSlot(1, 0)
	if !l.TryTransferAt(sa, sb, 3) {
		t.Fatal("covered transfer refused")
	}
	if l.TryTransferAt(sa, sb, 1) {
		t.Error("overdraft transfer accepted")
	}
	if l.TryTransferAt(sa, sb, -1) {
		t.Error("negative transfer accepted")
	}
	if l.BalanceAt(sa) != 0 || l.BalanceAt(sb) != 3 {
		t.Errorf("balances = %d/%d, want 0/3", l.BalanceAt(sa), l.BalanceAt(sb))
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestSlotRecycledAfterClose(t *testing.T) {
	l := NewLedger()
	sa, err := l.OpenSlot(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Close(0); err != nil {
		t.Fatal(err)
	}
	sb, err := l.OpenSlot(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sb != sa {
		t.Errorf("slot not recycled: got %d, want %d", sb, sa)
	}
	if l.BalanceAt(sb) != 2 {
		t.Errorf("recycled slot balance = %d, want 2", l.BalanceAt(sb))
	}
	if l.Total() != 2 || l.Burned() != 8 {
		t.Errorf("total %d burned %d, want 2/8", l.Total(), l.Burned())
	}
	if err := l.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestFastPathDoesNotAllocate(t *testing.T) {
	l := NewLedger()
	sa, _ := l.OpenSlot(0, 1<<40)
	sb, _ := l.OpenSlot(1, 0)
	avg := testing.AllocsPerRun(200, func() {
		if err := l.TransferAt(sa, sb, 1); err != nil {
			t.Fatal(err)
		}
		_ = l.BalanceAt(sa)
		if !l.TryTransferAt(sb, sa, 1) {
			t.Fatal("transfer back refused")
		}
	})
	if avg != 0 {
		t.Errorf("fast-path allocs per op = %v, want 0", avg)
	}
}
