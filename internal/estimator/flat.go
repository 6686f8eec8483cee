package estimator

import (
	"fmt"

	"privrange/internal/index"
)

// This file holds the flat-index hot path: the same RankCounting math as
// estimator.go, but evaluated over the columnar sample index
// (internal/index) with hand-rolled binary searches and no per-query
// allocation. The SampleSet path stays as the node-side representation
// and the correctness oracle; the property tests in flat_test.go assert
// both paths agree bit-for-bit, which is possible because the flat
// kernel performs the exact same float operations in the exact same
// order (per-node terms summed in node-index order starting from 0).

// searchGE returns the smallest i with values[i] >= x (len(values) when
// none). Equivalent to sort.SearchFloat64s but inlineable and free of
// the closure call sort.Search pays per probe.
func searchGE(values []float64, x float64) int {
	lo, hi := 0, len(values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if values[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchGT returns the smallest i with values[i] > x (len(values) when
// none).
func searchGT(values []float64, x float64) int {
	lo, hi := 0, len(values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if values[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rankNodeFlat is RankCounting.estimateNode over one node's columns:
// the four-case rule of §III-A evaluated from the flat arrays. The
// arithmetic mirrors estimateNode exactly so results are bit-identical.
func rankNodeFlat(values []float64, ranks []int32, n int, q Query, p float64) float64 {
	pi := searchGE(values, q.L) // pred = pi-1 when pi > 0
	si := searchGT(values, q.U) // succ = si when si < len
	hasPred := pi > 0
	hasSucc := si < len(values)
	switch {
	case hasPred && hasSucc:
		return float64(int(ranks[si])-int(ranks[pi-1])+1) - 2/p
	case hasPred:
		return float64(n-int(ranks[pi-1])+1) - 1/p
	case hasSucc:
		return float64(int(ranks[si])) - 1/p
	default:
		return float64(n)
	}
}

// EstimateIndexBatch evaluates every query against the columnar index
// and writes the global RankCounting estimates into out (len(out) must
// equal len(queries)) — the broker's one flat estimation entry point.
// It walks the index once per batch, node by node, adding each query's
// per-node term into out[i]; every out[i] starts at 0 and sums its terms
// in node order, so it is bit-identical to Estimate(sets, queries[i])
// over the sample sets the index was built from. It allocates nothing.
func (r RankCounting) EstimateIndexBatch(ix *index.Index, queries []Query, out []float64) error {
	if ix == nil {
		return fmt.Errorf("estimator: nil sample index")
	}
	if len(out) != len(queries) {
		return fmt.Errorf("estimator: batch out length %d != %d queries", len(out), len(queries))
	}
	if r.P <= 0 || r.P > 1 {
		return fmt.Errorf("estimator: sampling probability %v outside (0, 1]", r.P)
	}
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("estimator: batch query %d: %w", i, err)
		}
	}
	for i := range out {
		out[i] = 0
	}
	for node := 0; node < ix.Nodes(); node++ {
		values, ranks, n := ix.Node(node)
		for i, q := range queries {
			out[i] += rankNodeFlat(values, ranks, n, q, r.P)
		}
	}
	return nil
}
