//go:build amd64 || arm64

package prefetch

import "unsafe"

// Of hints that the value at p will be read soon.
func Of[T any](p *T) { hint(unsafe.Pointer(p)) }

// Ends hints that s will be read soon by hinting the lines holding its
// first and last elements: a short row spans one or two lines, and a long
// one is read at a random index whose line the hardware cannot guess, so
// the two ends are what a hint can cover cheaply. Both hints go out in
// one call; when the ends share a line the second costs next to nothing.
// An empty s hints nothing.
func Ends[T any](s []T) {
	if len(s) > 0 {
		hint2(unsafe.Pointer(&s[0]), unsafe.Pointer(&s[len(s)-1]))
	}
}

// Indexed hints that s[j] will be read soon for every j in idx, all from
// one call: a batch of scattered targets costs one stub call, not one
// each. Every j must be a valid index into s; a prefetch never faults, so
// a bad one only wastes a fetch, but it is not checked.
func Indexed(s, idx []int32) {
	if len(s) > 0 && len(idx) > 0 {
		hintIndexed(unsafe.Pointer(&s[0]), &idx[0], len(idx))
	}
}

// hint issues the architecture's prefetch-to-L1 instruction for the line
// holding p (prefetch_amd64.s, prefetch_arm64.s).
//
//go:noescape
func hint(p unsafe.Pointer)

// hint2 issues it for the lines holding p and q.
//
//go:noescape
func hint2(p, q unsafe.Pointer)

// hintIndexed issues it for the lines holding the n int32s at base+4·idx[k].
//
//go:noescape
func hintIndexed(base unsafe.Pointer, idx *int32, n int)
