package snapshot

import (
	"math/bits"

	"creditp2p/internal/pad"
)

// DirtyBits is the fixed-size-segment dirty bitmap delta checkpoints are
// built on: mutation paths Mark the segment covering each touched element,
// and a capture walks the marked segments and Clears — after MarkAll for a
// base, which carries every segment. Marking is one shift and one OR, and
// never allocates once Grow has sized the map, preserving the kernel's
// zero-alloc barrier contract. It is cheap enough to stay always-on in
// event-dispatch hot paths only while the words are private to the
// marking goroutine: a sharded lane marks its maps on every event, and a
// map of a few words shares its cache line with whatever the allocator put
// next to it — another lane's map, at worst. Grow therefore allocates the
// words in whole pad.Block units.
type DirtyBits struct {
	words []uint64
	segs  int
}

// Grow widens the map to cover nSegs segments, preserving existing marks.
// Newly covered segments start clean: callers mark as they touch, and
// element-append paths mark the segment they extend into.
func (d *DirtyBits) Grow(nSegs int) {
	if nSegs <= d.segs {
		return
	}
	d.segs = nSegs
	if need := (nSegs + 63) >> 6; need > len(d.words) {
		w := pad.Make[uint64](need + need/2)
		copy(w, d.words)
		d.words = w
	}
}

// Segments returns the number of covered segments.
func (d *DirtyBits) Segments() int { return d.segs }

// Mark flags one segment dirty. seg must be within the grown size.
func (d *DirtyBits) Mark(seg int) { d.words[seg>>6] |= 1 << (uint(seg) & 63) }

// Test reports whether a segment is marked.
func (d *DirtyBits) Test(seg int) bool {
	return seg < d.segs && d.words[seg>>6]&(1<<(uint(seg)&63)) != 0
}

// Count returns the number of marked segments.
func (d *DirtyBits) Count() int {
	n := 0
	for _, w := range d.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Walk calls fn for every marked segment in ascending order.
func (d *DirtyBits) Walk(fn func(seg int)) {
	for wi, w := range d.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// MarkAll flags every covered segment, turning the next delta capture into
// a base: the capture that carries every segment.
func (d *DirtyBits) MarkAll() {
	full := d.segs >> 6
	for i := 0; i < full; i++ {
		d.words[i] = ^uint64(0)
	}
	if r := d.segs & 63; r != 0 {
		d.words[full] = 1<<uint(r) - 1
	}
}

// Clear unmarks every segment — the epilogue of any capture.
func (d *DirtyBits) Clear() {
	for i := range d.words {
		d.words[i] = 0
	}
}
