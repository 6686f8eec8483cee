package estimator

import (
	"fmt"
	"math"
)

// Accuracy is an (α, δ) accuracy specification (Definition 2.2): the
// estimate must fall within ±α·|D| of the truth with probability at least
// δ.
type Accuracy struct {
	Alpha float64
	Delta float64
}

// Validate reports whether the specification is well-formed. The paper
// restricts both parameters to [0, 1]; the degenerate endpoints (α=0
// demands exactness, δ=1 demands certainty) are rejected for the open
// ranges the theorems require.
func (a Accuracy) Validate() error {
	if !(a.Alpha > 0 && a.Alpha < 1) {
		return fmt.Errorf("estimator: alpha %v outside (0, 1)", a.Alpha)
	}
	if !(a.Delta > 0 && a.Delta < 1) {
		return fmt.Errorf("estimator: delta %v outside (0, 1)", a.Delta)
	}
	return nil
}

// GlobalVariance returns RankCounting's variance bound over k nodes
// sampled at rate p (THEORY §1):
//
//	V(p, k) = 2k(1−p)/p²
//
// Each node contributes two independent boundary errors, each a
// conditional expectation of a Geometric(p) overshoot and so of variance
// at most (1−p)/p². This is the one place the bound is written: every
// sampling rate, confidence and plan in the system is sized by it. The
// paper's Theorems 3.1–3.2 state the looser 8k/p². At p = 1 the sample is
// the data and the bound is 0.
func GlobalVariance(p float64, k int) float64 {
	return 2 * float64(k) * (1 - p) / (p * p)
}

// RequiredProbability returns the smallest sampling probability at which
// Chebyshev on GlobalVariance meets (α, δ) (Theorem 3.3 with the exact
// bound): the positive root of V(p, k) = (1−δ)(αn)², that is of
// (1−δ)(αn)²·p² + 2k·p − 2k = 0, written without cancellation as
//
//	p = 2k / (k + √(k² + 2k·(1−δ)(αn)²))
//
// It lies in (0, 1) for every valid input. It returns an error for
// invalid accuracy, k < 1 or n < 1.
func RequiredProbability(acc Accuracy, k, n int) (float64, error) {
	if err := acc.Validate(); err != nil {
		return 0, err
	}
	if k < 1 {
		return 0, fmt.Errorf("estimator: node count %d < 1", k)
	}
	if n < 1 {
		return 0, fmt.Errorf("estimator: dataset size %d < 1", n)
	}
	t := acc.Alpha * float64(n)
	kf := float64(k)
	return 2 * kf / (kf + math.Sqrt(kf*kf+2*kf*(1-acc.Delta)*t*t)), nil
}

// ExpectedSamples returns the expected communication volume |D|·p of a
// Bernoulli sample, the quantity the paper's cost argument is about.
func ExpectedSamples(n int, p float64) float64 {
	return float64(n) * p
}
