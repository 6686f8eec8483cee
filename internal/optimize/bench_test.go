package optimize

import (
	"testing"

	"privrange/internal/estimator"
)

// planSink keeps the compiler from discarding a benchmarked solve.
var planSink Plan

// BenchmarkSolveRefined times one solve of problem (3) at the two
// shapes perfbench drives through the engine: buy-open cycles its four
// tiers on 16 nodes and 17,568 readings, and ingest-batch solves its one
// tier on 64 nodes as every round adds 288 readings. Both run at twice
// the Theorem 3.3 rate of their tightest tier, where auto-collection
// settles.
func BenchmarkSolveRefined(b *testing.B) {
	const n = 17568
	b.Run("buy-open", func(b *testing.B) {
		probs := make([]Problem, len(buyOpenTiers))
		p := doubledRate(b, buyOpenTiers[0], 16, n)
		for i, acc := range buyOpenTiers {
			probs[i] = Problem{Accuracy: acc, P: p, K: 16, N: n}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := probs[i%len(probs)].SolveRefined()
			if err != nil {
				b.Fatal(err)
			}
			planSink = plan
		}
	})
	b.Run("ingest-batch", func(b *testing.B) {
		acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.8}
		prob := Problem{Accuracy: acc, P: doubledRate(b, acc, 64, n), K: 64}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prob.N = n + 288*(i%2800)
			plan, err := prob.SolveRefined()
			if err != nil {
				b.Fatal(err)
			}
			planSink = plan
		}
	})
}
