//go:build linux || darwin || freebsd

package shard

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time the process has used so far, user plus
// system, summed over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
