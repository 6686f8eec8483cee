package stats

import (
	"fmt"
	"math"
)

// RelativeError returns |estimate−truth| / max(|truth|, floor). The floor
// guards against division by zero for empty ranges; the paper's evaluation
// reports relative error against non-empty range counts, so callers
// typically pass floor = 1 (one record).
func RelativeError(estimate, truth, floor float64) float64 {
	denom := math.Abs(truth)
	if denom < floor {
		denom = floor
	}
	return math.Abs(estimate-truth) / denom
}

// AbsoluteError returns |estimate − truth|.
func AbsoluteError(estimate, truth float64) float64 {
	return math.Abs(estimate - truth)
}

// ErrorSummary aggregates the error of a batch of estimates against ground
// truth, in the form the paper's figures report (maximum relative error)
// plus the supporting moments.
type ErrorSummary struct {
	// MaxRel is the maximum relative error over the batch — the headline
	// metric in Figs 2, 3, 5 and 6.
	MaxRel float64
	// MeanRel is the mean relative error.
	MeanRel float64
	// MaxAbs is the maximum absolute error.
	MaxAbs float64
	// MeanAbs is the mean absolute error.
	MeanAbs float64
	// N is the number of (estimate, truth) pairs summarized.
	N int
}

// SummarizeErrors computes an ErrorSummary for paired estimates and truths.
// It returns an error when the slices differ in length or are empty.
func SummarizeErrors(estimates, truths []float64) (ErrorSummary, error) {
	if len(estimates) != len(truths) {
		return ErrorSummary{}, fmt.Errorf("stats: %d estimates vs %d truths", len(estimates), len(truths))
	}
	if len(estimates) == 0 {
		return ErrorSummary{}, fmt.Errorf("stats: empty error batch")
	}
	var s ErrorSummary
	s.N = len(estimates)
	var relSum, absSum float64
	for i, est := range estimates {
		rel := RelativeError(est, truths[i], 1)
		abs := AbsoluteError(est, truths[i])
		relSum += rel
		absSum += abs
		if rel > s.MaxRel {
			s.MaxRel = rel
		}
		if abs > s.MaxAbs {
			s.MaxAbs = abs
		}
	}
	s.MeanRel = relSum / float64(s.N)
	s.MeanAbs = absSum / float64(s.N)
	return s, nil
}

// String renders the summary for experiment tables.
func (s ErrorSummary) String() string {
	return fmt.Sprintf("maxRel=%.4f meanRel=%.4f maxAbs=%.1f meanAbs=%.1f n=%d",
		s.MaxRel, s.MeanRel, s.MaxAbs, s.MeanAbs, s.N)
}

// ChebyshevTail returns the Chebyshev upper bound on
// Pr[|X − E X| > t] ≤ Var(X)/t², clamped to [0, 1]. It returns 1 when
// t ≤ 0 (the bound is vacuous there).
func ChebyshevTail(variance, t float64) float64 {
	if t <= 0 {
		return 1
	}
	b := variance / (t * t)
	if b > 1 {
		return 1
	}
	if b < 0 {
		return 0
	}
	return b
}

// ChebyshevConfidence returns the Chebyshev lower bound on
// Pr[|X − E X| ≤ t] ≥ 1 − Var(X)/t² (clamped at 0). This is the bound
// Theorem 3.3 instantiates with t = αn and RankCounting's variance bound
// (estimator.GlobalVariance).
func ChebyshevConfidence(variance, t float64) float64 {
	return 1 - ChebyshevTail(variance, t)
}
