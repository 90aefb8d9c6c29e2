package credit

import (
	"errors"
	"testing"
)

// TestZeroBalanceTransfer pins the bankruptcy edge: a peer at exactly zero
// can still send zero-amount payments (free chunks) through every API, but
// any positive amount fails without touching state.
func TestZeroBalanceTransfer(t *testing.T) {
	l := NewLedger()
	broke, err := l.OpenSlot(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rich, err := l.OpenSlot(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer(1, 2, 0); err != nil {
		t.Fatalf("zero-amount transfer from zero balance: %v", err)
	}
	if err := l.TransferAt(broke, rich, 0); err != nil {
		t.Fatalf("zero-amount TransferAt from zero balance: %v", err)
	}
	if !l.TryTransferAt(broke, rich, 0) {
		t.Fatal("zero-amount TryTransferAt from zero balance refused")
	}
	if err := l.Transfer(1, 2, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("transfer from zero balance = %v, want ErrInsufficient", err)
	}
	if err := l.TransferAt(broke, rich, 1); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("TransferAt from zero balance = %v, want ErrInsufficient", err)
	}
	if l.TryTransferAt(broke, rich, 1) {
		t.Fatal("TryTransferAt moved credits out of a zero balance")
	}
	if b, _ := l.Balance(1); b != 0 {
		t.Fatalf("zero balance drifted to %d", b)
	}
	if b, _ := l.Balance(2); b != 10 {
		t.Fatalf("payee balance drifted to %d", b)
	}
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTransfer pins the self-payment edge: paying yourself is a legal
// conserving no-op when covered, and fails with ErrInsufficient when not —
// with the balance unchanged either way on all three APIs.
func TestSelfTransfer(t *testing.T) {
	l := NewLedger()
	slot, err := l.OpenSlot(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer(1, 1, 5); err != nil {
		t.Fatalf("covered self-transfer: %v", err)
	}
	if err := l.TransferAt(slot, slot, 7); err != nil {
		t.Fatalf("covered self-TransferAt: %v", err)
	}
	if !l.TryTransferAt(slot, slot, 3) {
		t.Fatal("covered self-TryTransferAt refused")
	}
	if b, _ := l.Balance(1); b != 7 {
		t.Fatalf("self-transfer changed the balance: %d", b)
	}
	if err := l.Transfer(1, 1, 8); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("uncovered self-transfer = %v, want ErrInsufficient", err)
	}
	if l.TryTransferAt(slot, slot, 8) {
		t.Fatal("uncovered self-TryTransferAt succeeded")
	}
	if b, _ := l.Balance(1); b != 7 {
		t.Fatalf("failed self-transfer changed the balance: %d", b)
	}
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
