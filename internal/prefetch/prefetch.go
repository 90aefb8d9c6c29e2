// Package prefetch holds the sharded kernel's read-ahead primitive: a
// cache hint that asks the hardware to start fetching the line holding a
// value the caller will read shortly.
//
// A hint is not a load. An ordinary load whose value is used — even only
// folded into a sink field to keep the compiler from dropping it — cannot
// retire until its cache miss resolves, so a read-ahead written that way
// stalls the core on the very miss it meant to hide. A prefetch
// instruction retires as soon as it issues; the fetch proceeds in the
// background while the core keeps working, and it never faults, so any
// address is safe to pass.
//
// Of compiles to PREFETCHT0 on amd64 and PRFM PLDL1KEEP on arm64, each in
// a one-instruction assembly stub, and to nothing on every other
// architecture; Ends issues two of them from one stub, one for each end
// of a slice. Neither ever changes program state, only timing.
package prefetch
