// Package privacyboundary holds golden cases for the privacyboundary
// analyzer.
package privacyboundary

import (
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/market"
	"privrange/internal/sampling"
)

// leakEstimate releases the un-noised estimate straight to the buyer.
func leakEstimate(rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query) (*market.Response, error) {
	raw, err := rc.Estimate(sets, q)
	if err != nil {
		return nil, err
	}
	return &market.Response{OK: true, Value: raw}, nil // want `un-noised estimate flows into`
}

// leakRank copies a node's raw rank into a response field.
func leakRank(set *sampling.SampleSet, resp *market.Response) {
	resp.Value = float64(set.Samples[0].Rank) // want `flows into .*market\.Response\.Value`
}

// leakBasicEstimate releases the baseline estimator's un-noised
// |S ∩ [l,u]|/p — held to the same boundary as RankCounting.
func leakBasicEstimate(bc estimator.BasicCounting, sets []*sampling.SampleSet, q estimator.Query) (*market.Response, error) {
	raw, err := bc.Estimate(sets, q)
	if err != nil {
		return nil, err
	}
	return &market.Response{OK: true, Value: raw}, nil // want `un-noised estimate flows into`
}

// leakBatchEstimate releases a raw estimate the batch API wrote into its
// out slice.
func leakBatchEstimate(rc estimator.RankCounting, ix *index.Index, qs []estimator.Query, resp *market.Response) error {
	raws := make([]float64, len(qs))
	if err := rc.EstimateIndexBatch(ix, qs, raws); err != nil {
		return err
	}
	resp.Value = raws[0] // want `flows into .*market\.Response\.Value`
	return nil
}

// holderLike holds raw sample sets next to a clean coverage field, like
// the engine's snapshot.
type holderLike struct {
	sets     []*sampling.SampleSet
	coverage float64
}

// sellHolderCoverage sells a field read out of a struct that carries
// sample sets: a release refuses anything read from such a holder.
func sellHolderCoverage(h holderLike) *market.Response {
	return &market.Response{OK: true, Coverage: h.coverage} // want `flows into .*market\.Response\.Coverage`
}

// sellHolderCoverageRange does the same through a range over holders
// and a local copy.
func sellHolderCoverageRange(hs []holderLike, resp *market.Response) {
	for _, h := range hs {
		c := h.coverage
		resp.Coverage = c // want `flows into .*market\.Response\.Coverage`
	}
}
