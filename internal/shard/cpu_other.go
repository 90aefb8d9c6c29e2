//go:build !(linux || darwin || freebsd)

package shard

import "time"

// processCPU reports 0 where getrusage is unavailable; Timings.DispatchCPU
// and ApplyCPU then stay 0 and the -timing table says so.
func processCPU() time.Duration { return 0 }
