// Package estimator implements the paper's two range-counting estimators
// over rank-annotated samples (§III-A):
//
//   - BasicCounting: the naive Horvitz–Thompson estimate
//     |S ∩ [l,u]| / p, unbiased but with variance γ(l,u,D)(1−p)/p that
//     grows with the width of the queried range.
//   - RankCounting: the paper's contribution. It locates the sampled
//     strict predecessor of l and strict successor of u at each node and
//     converts their local ranks into an exact interior count, leaving
//     only two truncated-geometric boundary overshoots, each with mean
//     1/p. The estimate is unbiased with per-node variance ≤ 2(1−p)/p²
//     and global variance ≤ 2k(1−p)/p² (GlobalVariance, THEORY §1),
//     independent of the range width. The paper's Theorems 3.1–3.2 state
//     the looser 8/p² and 8k/p².
//
// Rank semantics follow internal/sampling: instance j of node i's sorted
// dataset has rank j, so duplicates are distinct instances and both
// estimators stay exactly unbiased on integer-valued sensor data.
package estimator

import (
	"fmt"
	"math"

	"privrange/internal/sampling"
)

// Query is a closed range-counting query [L, U] (Definition 2.1).
type Query struct {
	L, U float64
}

// Validate reports whether the query is well-formed.
func (q Query) Validate() error {
	if math.IsNaN(q.L) || math.IsNaN(q.U) {
		return fmt.Errorf("estimator: query bounds must not be NaN")
	}
	if q.L > q.U {
		return fmt.Errorf("estimator: query [%v, %v] has L > U", q.L, q.U)
	}
	return nil
}

// validateSets checks the shared preconditions of both estimators.
func validateSets(sets []*sampling.SampleSet, p float64, q Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if p <= 0 || p > 1 {
		return fmt.Errorf("estimator: sampling probability %v outside (0, 1]", p)
	}
	for i, set := range sets {
		if set == nil {
			return fmt.Errorf("estimator: nil sample set for node %d", i)
		}
	}
	return nil
}

// BasicCounting is the baseline estimator γ_B(l,u,S) = |{x∈S : l≤x≤u}|/p.
type BasicCounting struct {
	// P is the Bernoulli sampling probability the sets were drawn with.
	P float64
}

// EstimateNode estimates γ(l, u, i) from node i's sample set.
func (b BasicCounting) EstimateNode(set *sampling.SampleSet, q Query) (float64, error) {
	if err := validateSets([]*sampling.SampleSet{set}, b.P, q); err != nil {
		return 0, err
	}
	return b.estimateNode(set, q)
}

// estimateNode is EstimateNode without the precondition checks, for the
// hot loop where Estimate has already validated the whole batch.
func (b BasicCounting) estimateNode(set *sampling.SampleSet, q Query) (float64, error) {
	c, err := set.CountInRange(q.L, q.U)
	if err != nil {
		return 0, err
	}
	return float64(c) / b.P, nil
}

// Estimate estimates the global count γ(l, u, D) as the sum of per-node
// estimates, added in node order starting from 0.
func (b BasicCounting) Estimate(sets []*sampling.SampleSet, q Query) (float64, error) {
	if err := validateSets(sets, b.P, q); err != nil {
		return 0, err
	}
	total := 0.0
	for _, set := range sets {
		est, err := b.estimateNode(set, q)
		if err != nil {
			return 0, err
		}
		total += est
	}
	return total, nil
}

// VarianceBound returns the estimator's variance γ(1−p)/p for a query
// whose true count is gamma (§III-A). Note it scales with the count, i.e.
// with the range width.
func (b BasicCounting) VarianceBound(gamma float64) float64 {
	return gamma * (1 - b.P) / b.P
}

// RankCounting is the paper's estimator (§III-A).
type RankCounting struct {
	// P is the Bernoulli sampling probability the sets were drawn with.
	P float64
}

// EstimateNode computes γ̂(l, u, i) using the four-case rule:
//
//	γ(𝔭(l), 𝔰(u)) − 2/p   when both boundary samples exist,
//	γ(𝔭(l), lst) − 1/p    when only the predecessor exists,
//	γ(fst, 𝔰(u)) − 1/p    when only the successor exists,
//	γ(fst, lst) = n_i     when neither exists,
//
// where each γ(·,·) is an exact count reconstructed from local ranks:
// γ(a, b) = rank(b) − rank(a) + 1. The result may be negative; the
// estimator trades one-sided truncation away for exact unbiasedness.
func (r RankCounting) EstimateNode(set *sampling.SampleSet, q Query) (float64, error) {
	if err := validateSets([]*sampling.SampleSet{set}, r.P, q); err != nil {
		return 0, err
	}
	return r.estimateNode(set, q)
}

// estimateNode is EstimateNode without the precondition checks, for the
// hot loop where Estimate has already validated the whole batch.
func (r RankCounting) estimateNode(set *sampling.SampleSet, q Query) (float64, error) {
	pred, hasPred := set.PredecessorStrict(q.L)
	succ, hasSucc := set.SuccessorStrict(q.U)
	switch {
	case hasPred && hasSucc:
		return float64(succ.Rank-pred.Rank+1) - 2/r.P, nil
	case hasPred:
		// γ(𝔭(l), lst) spans ranks [pred.Rank, n_i].
		return float64(set.N-pred.Rank+1) - 1/r.P, nil
	case hasSucc:
		// γ(fst, 𝔰(u)) spans ranks [1, succ.Rank].
		return float64(succ.Rank) - 1/r.P, nil
	default:
		// γ(fst, lst) = n_i.
		return float64(set.N), nil
	}
}

// Estimate computes the global estimate γ̂(l, u, S) = Σ_i γ̂(l, u, i)
// (Equation 2), adding the per-node terms in node order starting from 0.
// It is the oracle EstimateIndexBatch is tested against.
func (r RankCounting) Estimate(sets []*sampling.SampleSet, q Query) (float64, error) {
	if err := validateSets(sets, r.P, q); err != nil {
		return 0, err
	}
	total := 0.0
	for _, set := range sets {
		est, err := r.estimateNode(set, q)
		if err != nil {
			return 0, err
		}
		total += est
	}
	return total, nil
}

// NodeVarianceBound returns the per-node bound 2(1−p)/p², GlobalVariance
// of one node.
func (r RankCounting) NodeVarianceBound() float64 {
	return GlobalVariance(r.P, 1)
}

// VarianceBound returns the global bound 2k(1−p)/p² for k nodes
// (GlobalVariance).
func (r RankCounting) VarianceBound(k int) float64 {
	return GlobalVariance(r.P, k)
}
