// Package pad holds the sharded kernel's cache-layout rule: every object a
// lane writes while the lanes run concurrently is private to that lane down
// to the 128-byte block — a 64-byte cache line plus the adjacent line the
// hardware prefetcher pulls in as a pair — so two lanes never write the
// same line, and never the same prefetch pair.
//
// The Go allocator serves every small object from a size-class slot that
// starts on a multiple of its class size within a page-aligned span. When
// the class is a whole number of blocks, the slot is block-aligned and no
// other object shares its blocks. Cap and Make size lane-private backing
// arrays so their allocations land in such classes, and appends keep them
// there: append doubles a small array, and every size class above 704
// bytes is a whole number of blocks. Fixed-size lane structs are padded to
// whole blocks instead (shard.Lane, which holds the workload counters). The
// shard package's layout test checks the addresses the allocator actually
// hands out.
package pad

import "unsafe"

// Block is the layout granule: two 64-byte cache lines, the unit the
// adjacent-line prefetcher moves.
const Block = 128

// Cap returns the capacity to allocate for at least n elements of T so the
// backing array spans whole blocks: at least one block, and a whole number
// of them. It skips the five-block size: an array of pointer-bearing
// elements larger than 512 bytes carries an 8-byte allocation header, which
// would push a 640-byte array into the 704-byte size class — the only class
// above 512 bytes that is not a whole number of blocks.
func Cap[T any](n int) int {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if size == 0 {
		return n
	}
	// per elements make the smallest whole-block run: lcm(size, Block)/size.
	g, b := size, Block
	for b != 0 {
		g, b = b, g%b
	}
	per := Block / g
	c := (max(n, 1) + per - 1) / per * per
	if c*size == 5*Block {
		c += per
	}
	return c
}

// Make returns a slice of length n whose capacity is Cap[T](n).
func Make[T any](n int) []T { return make([]T, n, Cap[T](n)) }

// Grow returns s with room for at least n more elements, like slices.Grow;
// when it has to reallocate, the new capacity is Cap of exactly the length
// needed, so callers grow in one step rather than element by element.
func Grow[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	t := make([]T, len(s), Cap[T](len(s)+n))
	copy(t, s)
	return t
}
