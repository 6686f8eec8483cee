package privacyboundary

import (
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/market"
	"privrange/internal/sampling"
	"privrange/internal/stats"
	"privrange/internal/telemetry"
)

// releasePerturbed is the sanctioned path: the raw estimate passes
// through the dp mechanism before it reaches the response, and the
// mechanism's output is clean by construction.
func releasePerturbed(rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query, m dp.Mechanism, rng *stats.RNG) (*market.Response, error) {
	raw, err := rc.Estimate(sets, q)
	if err != nil {
		return nil, err
	}
	return &market.Response{OK: true, Value: m.Perturb(raw, rng)}, nil
}

// releasePlain passes already-released scalars through untouched.
func releasePlain(value, price float64) market.Response {
	return market.Response{OK: true, Value: value, Price: price}
}

// releaseFlatPerturbed is the sanctioned flat-index path: the raw
// estimate the batch kernel wrote goes through the mechanism before
// reaching the response, exactly like the SampleSet path.
func releaseFlatPerturbed(rc estimator.RankCounting, ix *index.Index, q estimator.Query, m dp.Mechanism, rng *stats.RNG) (*market.Response, error) {
	raws := make([]float64, 1)
	if err := rc.EstimateIndexBatch(ix, []estimator.Query{q}, raws); err != nil {
		return nil, err
	}
	return &market.Response{OK: true, Value: m.Perturb(raws[0], rng)}, nil
}

// publishHolderCoverage records the coverage a holder carries next to
// its sample sets: telemetry refuses only the sets and what is derived
// from them, so the gauge is legal where the sale is not.
func publishHolderCoverage(g *telemetry.Gauge, h holderLike, hs []holderLike) {
	g.Set(h.coverage)
	for _, h := range hs {
		c := h.coverage
		g.Set(c)
	}
}
