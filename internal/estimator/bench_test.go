package estimator

import (
	"sort"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// benchSets prepares per-node sample sets once for the hot-path benches.
// records == 0 selects the default CityPulse-scale series.
func benchSets(b *testing.B, k, records int, p float64) []*sampling.SampleSet {
	b.Helper()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1, Records: records})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		b.Fatal(err)
	}
	root := stats.NewRNG(2)
	sets := make([]*sampling.SampleSet, k)
	for i, part := range parts {
		cp := make([]float64, len(part))
		copy(cp, part)
		sort.Float64s(cp)
		set, err := sampling.Draw(cp, p, root.Child(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

// BenchmarkRankCountingEstimate measures one global estimate over the
// CityPulse-scale deployment (k=16, p=0.3) — the broker's inner loop.
func BenchmarkRankCountingEstimate(b *testing.B) {
	sets := benchSets(b, 16, 0, 0.3)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rc.Estimate(sets, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasicCountingEstimate is the baseline estimator's cost on the
// same sets.
func BenchmarkBasicCountingEstimate(b *testing.B) {
	sets := benchSets(b, 16, 0, 0.3)
	bc := BasicCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bc.Estimate(sets, q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSink keeps the compiler from eliding the estimate loop.
var benchSink float64

// BenchmarkEstimateSequential is the per-node loop over a 256-node
// deployment's sample sets, written out by hand: the floor Estimate's
// own loop should track.
func BenchmarkEstimateSequential(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	rc := RankCounting{P: 0.3}
	q := Query{L: 40, U: 120}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0.0
		for _, set := range sets {
			est, err := rc.estimateNode(set, q)
			if err != nil {
				b.Fatal(err)
			}
			total += est
		}
		benchSink = total
	}
}

// benchIndex builds the columnar index over the 256-node benchmark sets.
func benchIndex(b *testing.B, sets []*sampling.SampleSet) *index.Index {
	b.Helper()
	ix, err := index.Build(sets)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkEstimateFlatIndex is the k=256 acceptance benchmark: the same
// estimate as BenchmarkEstimateSequential, answered from the columnar
// index as a one-query EstimateIndexBatch. This must beat the SampleSet
// path on ns/op and run with zero allocations per query.
func BenchmarkEstimateFlatIndex(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	ix := benchIndex(b, sets)
	rc := RankCounting{P: 0.3}
	qs := []Query{{L: 40, U: 120}}
	out := make([]float64, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rc.EstimateIndexBatch(ix, qs, out); err != nil {
			b.Fatal(err)
		}
		benchSink = out[0]
	}
}

// BenchmarkEstimateIndexBatch measures the batch kernel answering 64
// queries per call over the same 256-node index — the amortized
// per-query cost the broker's AnswerBatch pays.
func BenchmarkEstimateIndexBatch(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	ix := benchIndex(b, sets)
	rc := RankCounting{P: 0.3}
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{L: float64(2 * i), U: float64(2*i + 120)}
	}
	out := make([]float64, len(queries))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rc.EstimateIndexBatch(ix, queries, out); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = out[0]
}

// BenchmarkIndexBuild prices the per-collection-round rebuild the
// network pays so that every query reads the index for free.
func BenchmarkIndexBuild(b *testing.B) {
	sets := benchSets(b, 256, 1_048_576, 0.3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(sets); err != nil {
			b.Fatal(err)
		}
	}
}
