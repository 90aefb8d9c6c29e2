package credit

// SpendingPolicy maps a peer's current wealth to its instantaneous maximum
// spending rate mu_i — fixed in the baseline model, wealth-coupled in the
// Sec. VI-D extension.
type SpendingPolicy interface {
	// Rate returns the spending rate for a peer with base rate mu and
	// current balance.
	Rate(baseMu float64, balance int64) float64
}

// FixedSpending is the baseline: mu_i never changes.
type FixedSpending struct{}

// Rate implements SpendingPolicy.
func (FixedSpending) Rate(baseMu float64, _ int64) float64 { return baseMu }

var _ SpendingPolicy = FixedSpending{}

// DynamicSpending is the Sec. VI-D adjustment: above wealth m a peer spends
// aggressively, mu_i = mu_s * B_i / m; at or below m it spends at mu_s.
type DynamicSpending struct {
	// M is the wealth threshold above which spending accelerates.
	M int64
}

// Rate implements SpendingPolicy.
func (d DynamicSpending) Rate(baseMu float64, balance int64) float64 {
	if d.M <= 0 || balance <= d.M {
		return baseMu
	}
	return baseMu * float64(balance) / float64(d.M)
}

var _ SpendingPolicy = DynamicSpending{}
