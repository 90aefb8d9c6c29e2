//go:build !amd64 && !arm64

package prefetch

// Of hints that the value at p will be read soon. This architecture has
// no stub, so it does nothing.
func Of[T any](p *T) {}

// Ends hints that s will be read soon. This architecture has no stub, so
// it does nothing.
func Ends[T any](s []T) {}
