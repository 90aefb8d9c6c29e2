package des

import (
	"slices"
	"testing"
)

// Collect merges the lanes' epoch buffers into dst in canonical
// (Time, Src, Seq) order by a global sort and returns the extended slice:
// the straight-line reference the Merger's loser tree is property-tested
// against.
func Collect(dst []XEvent, lanes []*MergeBuffer) []XEvent {
	for _, b := range lanes {
		dst = append(dst, b.ev...)
	}
	slices.SortFunc(dst, xeventBefore)
	return dst
}

// xeventBefore is the canonical (Time, Src, Seq) order as a three-way
// comparison, for the sort-based reference.
func xeventBefore(a, b XEvent) int {
	switch {
	case a.Before(&b):
		return -1
	case b.Before(&a):
		return 1
	}
	return 0
}

// TestCollectCanonicalOrder verifies the (Time, Src, Seq) merge order and
// that the result is independent of how events were distributed over
// lanes — the property the sharded kernel's determinism contract needs.
func TestCollectCanonicalOrder(t *testing.T) {
	evs := []XEvent{
		{Time: 2.0, Src: 1, Seq: 0, Dst: 9, Amount: 1},
		{Time: 1.0, Src: 3, Seq: 0, Dst: 8, Amount: 2},
		{Time: 1.0, Src: 2, Seq: 1, Dst: 7, Amount: 3},
		{Time: 1.0, Src: 2, Seq: 0, Dst: 6, Amount: 4},
		{Time: 0.5, Src: 9, Seq: 2, Dst: 5, Amount: 5},
	}
	want := []XEvent{evs[4], evs[3], evs[2], evs[1], evs[0]}

	// Distribute the same events over 1, 2 and 3 lanes in different ways;
	// every arrangement must merge to the same canonical sequence.
	splits := [][][]XEvent{
		{evs},
		{{evs[0], evs[2]}, {evs[1], evs[3], evs[4]}},
		{{evs[4]}, {evs[0], evs[1]}, {evs[2], evs[3]}},
	}
	for si, split := range splits {
		var lanes []*MergeBuffer
		for _, part := range split {
			b := &MergeBuffer{}
			for _, ev := range part {
				b.Add(ev)
			}
			lanes = append(lanes, b)
		}
		got := Collect(nil, lanes)
		if len(got) != len(want) {
			t.Fatalf("split %d: merged %d events, want %d", si, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("split %d: merged[%d] = %+v, want %+v", si, i, got[i], want[i])
			}
		}
	}
}

// TestMergeBufferReuse checks Reset keeps capacity and Collect reuses dst.
func TestMergeBufferReuse(t *testing.T) {
	b := &MergeBuffer{}
	for i := 0; i < 100; i++ {
		b.Add(XEvent{Time: float64(i), Src: int32(i)})
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	if cap(b.ev) < 100 {
		t.Fatalf("Reset dropped capacity: %d", cap(b.ev))
	}
	b.Add(XEvent{Time: 1})
	scratch := make([]XEvent, 0, 8)
	out := Collect(scratch[:0], []*MergeBuffer{b})
	if len(out) != 1 || out[0].Time != 1 {
		t.Fatalf("Collect into scratch = %+v", out)
	}
}
