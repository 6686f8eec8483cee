package budgetfloat

import "privrange/internal/stats"

// zeroSentinel: exact zero is the conventional unset/unlimited marker
// and is exactly representable.
func zeroSentinel(epsilon float64) bool {
	return epsilon == 0
}

// tolerantGate goes through the tolerance helper.
func tolerantGate(epsilon, epsilonPrime float64) bool {
	return stats.ApproxEqual(epsilon, epsilonPrime)
}

// rearranged compares sums instead of differences, which does not
// cancel.
func rearranged(spent, epsilon, budget float64) bool {
	return spent+epsilon > budget
}

// capacityLeft: cap matches only as a whole word, so a capacity is no
// budget and its difference is not flagged.
func capacityLeft(capacity, spent, epsilon float64) bool {
	return capacity-spent > epsilon
}

// withinCap is the rearranged cap gate: the sum is compared, not the
// difference.
func (l *ledger) withinCap(epsilon float64) bool {
	return l.spent+epsilon <= l.cap
}
