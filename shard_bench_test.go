package privrange

import (
	"fmt"
	"testing"
)

// BenchmarkShardBatchThroughput compares released-batch throughput of
// the single-broker engine (S=1 spelled Shards:0) against sharded
// deployments. A sharded cluster serves one index composed from its
// shards, so every deployment runs the same batch kernel over the same
// index: this checks that a sharded release costs what an unsharded
// one does.
func BenchmarkShardBatchThroughput(b *testing.B) {
	values := make([]float64, 200_000)
	for i := range values {
		values[i] = float64((i * 7919) % 1000)
	}
	ranges := make([]Range, 64)
	for i := range ranges {
		lo := float64((i * 131) % 900)
		ranges[i] = Range{L: lo, U: lo + 80}
	}
	acc := Accuracy{Alpha: 0.05, Delta: 0.8}
	for _, shards := range []int{0, 2, 4, 8} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "unsharded"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := NewSystem(values, Options{Nodes: 512, Seed: 3, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			// Warm: establish the sampling rate and the index once.
			if _, err := sys.CountBatch(ranges[:1], acc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.CountBatch(ranges, acc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ranges)), "queries/op")
		})
	}
}

// BenchmarkShardCollectionRound measures one full collection round (an
// Ingest that refreshes every shard concurrently, then builds the
// composed index) against the single-broker loop.
func BenchmarkShardCollectionRound(b *testing.B) {
	values := make([]float64, 100_000)
	for i := range values {
		values[i] = float64((i * 31) % 1000)
	}
	for _, shards := range []int{0, 4} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "unsharded"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := NewSystem(values, Options{Nodes: 256, Seed: 7, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			// Warm: establish a sampling rate so each ingest round
			// re-collects at it.
			if _, err := sys.Count(100, 500, Accuracy{Alpha: 0.05, Delta: 0.8}); err != nil {
				b.Fatal(err)
			}
			batch := make([]float64, 256)
			for i := range batch {
				batch[i] = float64(i % 1000)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Ingest(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
