package credit

import "testing"

func TestFixedSpending(t *testing.T) {
	var p FixedSpending
	if got := p.Rate(2.5, 1000000); got != 2.5 {
		t.Errorf("rate = %v, want 2.5", got)
	}
}

func TestDynamicSpending(t *testing.T) {
	p := DynamicSpending{M: 100}
	// At or below the threshold: base rate.
	if got := p.Rate(2, 100); got != 2 {
		t.Errorf("rate at threshold = %v, want 2", got)
	}
	if got := p.Rate(2, 10); got != 2 {
		t.Errorf("rate below threshold = %v, want 2", got)
	}
	// Above: scaled by B/m (Sec. VI-D).
	if got := p.Rate(2, 300); got != 6 {
		t.Errorf("rate at 3x threshold = %v, want 6", got)
	}
	// Degenerate threshold disables scaling.
	p0 := DynamicSpending{M: 0}
	if got := p0.Rate(2, 300); got != 2 {
		t.Errorf("rate with m=0 = %v, want 2", got)
	}
}
