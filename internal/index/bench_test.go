package index

import (
	"sort"
	"testing"

	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// BenchmarkIndexBuild measures one Build at the shape a 64-node
// deployment rebuilds after every ingest round: 64 nodes, each holding
// 1,900 integer-valued readings sampled at p = 0.1 (~190 samples a
// node).
func BenchmarkIndexBuild(b *testing.B) {
	rng := stats.NewRNG(11)
	sets := make([]*sampling.SampleSet, 64)
	for i := range sets {
		data := make([]float64, 1900)
		for j := range data {
			data[j] = float64(rng.Intn(150))
		}
		sort.Float64s(data)
		set, err := sampling.Draw(data, 0.1, rng.Child(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(sets); err != nil {
			b.Fatal(err)
		}
	}
}
