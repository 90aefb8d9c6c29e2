package sim

import (
	"creditp2p/internal/stats"
	"creditp2p/internal/trace"
)

// Snapshot is a full sorted wealth distribution at one instant.
type Snapshot struct {
	Time   float64
	Sorted []float64
}

// Metrics is the kernel's measurement pipeline: the periodic wealth-Gini /
// population / supply series, requested wealth snapshots, and the balance
// histogram that mirrors every live-peer balance change so a Gini sample
// is one walk over the balance domain instead of a re-sort.
type Metrics struct {
	// Gini is the wealth-Gini time series.
	Gini *trace.Series
	// Population is the live-peer-count time series.
	Population *trace.Series
	// Supply is the money-supply time series.
	Supply *trace.Series
	// Snapshots are the recorded sorted wealth distributions.
	Snapshots []Snapshot

	// hist counts live peers by balance, mirroring the ledger.
	hist stats.BalanceHist
	// wealthBuf and balBuf are reused scratch vectors for snapshots and
	// the audit's sorting reference.
	wealthBuf []float64
	balBuf    []int64
}

func newMetrics() Metrics {
	return Metrics{
		Gini:       trace.NewSeries("gini"),
		Population: trace.NewSeries("population"),
		Supply:     trace.NewSeries("supply"),
	}
}
