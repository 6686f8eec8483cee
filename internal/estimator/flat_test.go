package estimator

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// randomSets draws k random node datasets (integer-valued, heavy
// duplicates) Bernoulli-sampled at rate p — the adversarial shape for
// rank semantics, since predecessor/successor strictness only matters
// under ties.
func randomSets(t testing.TB, rng *stats.RNG, k, maxN int, p float64) []*sampling.SampleSet {
	t.Helper()
	sets := make([]*sampling.SampleSet, k)
	for i := range sets {
		n := rng.Intn(maxN + 1)
		data := make([]float64, n)
		for j := range data {
			data[j] = float64(rng.Intn(40))
		}
		sort.Float64s(data)
		set, err := sampling.Draw(data, p, rng.Child(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// randomQueries generates ranges that straddle, miss, cover and touch
// the sampled domain, including degenerate single-point queries.
func randomQueries(rng *stats.RNG, m int) []Query {
	qs := make([]Query, m)
	for i := range qs {
		switch rng.Intn(5) {
		case 0: // full cover
			qs[i] = Query{L: -10, U: 100}
		case 1: // empty, below the domain
			qs[i] = Query{L: -50, U: -40}
		case 2: // single point, likely on a duplicated value
			v := float64(rng.Intn(40))
			qs[i] = Query{L: v, U: v}
		case 3: // half-open into the domain
			qs[i] = Query{L: float64(rng.Intn(40)), U: 100}
		default:
			l := float64(rng.Intn(40)) - 0.5
			qs[i] = Query{L: l, U: l + float64(rng.Intn(30))}
		}
	}
	return qs
}

// TestFlatEstimatorsBitIdentical is the differential property test the
// acceptance criteria require: across random datasets, rates and query
// ranges, the flat-index batch must return bit-identical results to the
// SampleSet-path estimator — the SampleSet path is the correctness
// oracle, so any divergence, even in the last ulp, is a flat-kernel bug.
// The 60 random trials are followed by one larger fixed shape (150
// nodes, 75 queries).
func TestFlatEstimatorsBitIdentical(t *testing.T) {
	t.Parallel()
	check := func(name string, sets []*sampling.SampleSet, p float64, queries []Query) {
		t.Helper()
		ix, err := index.Build(sets)
		if err != nil {
			t.Fatal(err)
		}
		rc := RankCounting{P: p}
		flat := make([]float64, len(queries))
		if err := rc.EstimateIndexBatch(ix, queries, flat); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			oracle, err := rc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(flat[qi]) != math.Float64bits(oracle) {
				t.Fatalf("%s query %v: RankCounting batch %v != oracle %v", name, q, flat[qi], oracle)
			}
		}
	}
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(40)
		p := 0.05 + 0.95*rng.Float64()
		sets := randomSets(t, rng, k, 300, p)
		check(fmt.Sprintf("trial %d", trial), sets, p, randomQueries(rng, 25))
	}
	big := stats.NewRNG(4321)
	sets := randomSets(t, big, 150, 400, 0.6)
	check("k=150 m=75", sets, 0.6, randomQueries(big, 75))
}

// TestEstimateIndexBatchValidation covers the batch API's error paths.
func TestEstimateIndexBatchValidation(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(5)
	sets := randomSets(t, rng, 3, 50, 0.5)
	ix, err := index.Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	rc := RankCounting{P: 0.5}
	qs := []Query{{L: 0, U: 1}}
	if err := rc.EstimateIndexBatch(nil, qs, make([]float64, 1)); err == nil {
		t.Error("nil index should fail")
	}
	if err := rc.EstimateIndexBatch(ix, qs, make([]float64, 2)); err == nil {
		t.Error("out length mismatch should fail")
	}
	if err := (RankCounting{P: 0}).EstimateIndexBatch(ix, qs, make([]float64, 1)); err == nil {
		t.Error("invalid rate should fail")
	}
	if err := rc.EstimateIndexBatch(ix, []Query{{L: 2, U: 1}}, make([]float64, 1)); err == nil {
		t.Error("inverted query should fail")
	}
	// An empty index answers zero for every query.
	empty, err := index.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	out := []float64{7}
	if err := rc.EstimateIndexBatch(empty, qs, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 {
		t.Errorf("empty index estimate = %v, want 0", out[0])
	}
}
