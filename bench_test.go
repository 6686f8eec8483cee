package privrange

// Benchmark harness: one testing.B target per figure in the paper's
// evaluation (the paper has no numeric tables; Figs 2–6 are the
// artefacts) plus the repository's ablations and end-to-end
// micro-benchmarks. Each figure bench regenerates the figure's series
// and logs the table, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation; see EXPERIMENTS.md for the measured
// output and its comparison against the paper.

import (
	"testing"

	"privrange/internal/bench"
	"privrange/internal/dataset"
)

// benchCfg is the full-size configuration every figure bench runs at.
func benchCfg() bench.Config {
	return bench.Config{Seed: 1, Trials: 5, K: 10}
}

func runFigure(b *testing.B, name string) {
	b.Helper()
	var table string
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(name, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		table = res.Table()
	}
	b.Log("\n" + table)
}

// BenchmarkFig2SamplingAccuracy regenerates Fig 2: max relative error vs
// sampling probability p ∈ [0.0173, 0.4048] (noise-free estimator).
func BenchmarkFig2SamplingAccuracy(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig3AlphaDelta regenerates Fig 3: error-budget utilization as
// α and δ co-vary over [0.08, 0.8] with p from Theorem 3.3.
func BenchmarkFig3AlphaDelta(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFig4SamplingVsSize regenerates Fig 4: required sampling
// probability vs data size (α=0.055, δ=0.5).
func BenchmarkFig4SamplingVsSize(b *testing.B) { runFigure(b, "fig4") }

// BenchmarkFig5EpsilonAccuracy regenerates Fig 5: private-pipeline error
// vs ε ∈ [0.01, 8] at p=0.4 across all five pollutant series.
func BenchmarkFig5EpsilonAccuracy(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFig6SamplingPrivacy regenerates Fig 6: private-pipeline error
// vs p under several privacy budgets.
func BenchmarkFig6SamplingPrivacy(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkAblationEstimators compares RankCounting vs BasicCounting
// error spread across range widths (the §III-A variance claim).
func BenchmarkAblationEstimators(b *testing.B) { runFigure(b, "ablation-estimators") }

// BenchmarkAblationOptimizer maps the ε′ landscape over the internal α′
// split (the problem-(3) search space).
func BenchmarkAblationOptimizer(b *testing.B) { runFigure(b, "ablation-optimizer") }

// BenchmarkAblationArbitrage measures the adversary's best cost ratio on
// safe vs unsafe tariffs (Theorem 4.2 / Example 4.1).
func BenchmarkAblationArbitrage(b *testing.B) { runFigure(b, "ablation-arbitrage") }

// BenchmarkAblationTopology compares flat vs tree communication bytes as
// the deployment grows.
func BenchmarkAblationTopology(b *testing.B) { runFigure(b, "ablation-topology") }

// BenchmarkAblationWorkloads reports estimator error across workload
// shapes.
func BenchmarkAblationWorkloads(b *testing.B) { runFigure(b, "ablation-workloads") }

// BenchmarkSystemCount measures one end-to-end private query (sampling
// already collected) through the public API.
func BenchmarkSystemCount(b *testing.B) {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(series.Values, Options{Nodes: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.05, Delta: 0.9}
	if _, err := sys.Count(50, 100, acc); err != nil { // prime collection
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Count(50, 100, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSystemCollection measures the full sampling protocol: network
// construction plus first collection at the Theorem 3.3 rate.
func BenchmarkSystemCollection(b *testing.B) {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.05, Delta: 0.9}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(series.Values, Options{Nodes: 16, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Count(50, 100, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarketplaceBuy measures one priced sale through the trading
// layer (in-process).
func BenchmarkMarketplaceBuy(b *testing.B) {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := NewMarketplace(Tariff{Base: 1, C: 1e9})
	if err != nil {
		b.Fatal(err)
	}
	if err := mp.AddDataset("ozone", series.Values, Options{Nodes: 16, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.05, Delta: 0.9}
	if _, err := mp.Buy("bench", "ozone", 50, 100, acc); err != nil { // prime
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Buy("bench", "ozone", 50, 100, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaseline compares the sampling pipeline against the
// dyadic hierarchical-decomposition baseline at a fixed total budget as
// the number of sold queries grows (the crossover experiment).
func BenchmarkAblationBaseline(b *testing.B) { runFigure(b, "ablation-baseline") }
