//go:build amd64 || arm64

package prefetch

import "unsafe"

// Of hints that the value at p will be read soon.
func Of[T any](p *T) { hint(unsafe.Pointer(p)) }

// hint issues the architecture's prefetch-to-L1 instruction for the line
// holding p (prefetch_amd64.s, prefetch_arm64.s).
//
//go:noescape
func hint(p unsafe.Pointer)
