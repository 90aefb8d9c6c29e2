package xrand

import (
	"testing"

	"creditp2p/internal/snapshot"
)

// TestLoadStateRoundTrip restores a stream mid-sequence onto a generator
// of another seed and requires the restored stream to continue it exactly.
func TestLoadStateRoundTrip(t *testing.T) {
	a := New(3)
	for i := 0; i < 1000; i++ {
		a.Float64()
	}
	w := snapshot.NewWriter(0)
	a.SaveState(w)
	r, err := snapshot.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	b := New(99)
	b.LoadState(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d after restore: %v, want %v", i, y, x)
		}
	}
}
