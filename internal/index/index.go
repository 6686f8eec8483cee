// Package index provides the broker's columnar sample index: every
// node's rank-annotated samples flattened into contiguous arrays so the
// range-counting hot path runs branch-light binary searches over flat
// memory instead of chasing []*sampling.SampleSet pointers per query.
//
// The index is built once per collection round (the base station
// rebuilds it whenever its sample-state version moves) and shared
// immutably through snapshots: queries never pay the build cost, and
// because nothing writes the layout after Build, concurrent readers
// need no synchronization. The SampleSet representation remains the
// node-side/wire format and the correctness oracle — the estimators'
// flat kernels are required (and property-tested) to return
// bit-identical results to the SampleSet path.
//
// Layout: values and ranks are parallel arrays holding node 0's samples
// first, then node 1's, and so on; start[i] / start[i+1] delimit node
// i's slice and n[i] records the node's dataset size n_i. Within a node
// the samples keep their SampleSet order (sorted by value, ties in rank
// order), so a binary search over values[start[i]:start[i+1]] answers
// the same predecessor/successor questions SampleSet answers.
package index

import (
	"fmt"
	"math"

	"privrange/internal/sampling"
)

// Index is the immutable columnar layout of a deployment's samples.
// Build is the only constructor; a built index is never mutated, so it
// is safe for unsynchronized concurrent use.
type Index struct {
	// values[start[i]:start[i+1]] are node i's sample values in
	// non-decreasing order; ranks is parallel to values.
	values []float64
	ranks  []int32
	// start has len(nodes)+1 entries; start[0] == 0 and
	// start[len(n)] == len(values).
	start []int32
	// n[i] is node i's dataset size n_i.
	n []int32
	// totalN caches Σ n_i.
	totalN int
}

// Build flattens per-node sample sets (ordered by node id, as returned
// by the base station) into a columnar index. The sets are copied, not
// retained. It rejects nil sets, sizes or ranks that do not fit the
// index's int32 columns, and samples violating the SampleSet rank/value
// ordering invariants — a corrupt index would silently mis-answer every
// query, so Build re-checks rather than trusting the caller.
func Build(sets []*sampling.SampleSet) (*Index, error) {
	total := 0
	for i, set := range sets {
		if set == nil {
			return nil, fmt.Errorf("index: nil sample set for node %d", i)
		}
		total += len(set.Samples)
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("index: %d samples exceed int32 offsets", total)
	}
	ix := &Index{
		values: make([]float64, total),
		ranks:  make([]int32, total),
		start:  make([]int32, len(sets)+1),
		n:      make([]int32, len(sets)),
	}
	end := 0
	for i, set := range sets {
		if set.N < 0 || set.N > math.MaxInt32 {
			return nil, fmt.Errorf("index: node %d dataset size %d outside int32", i, set.N)
		}
		lo := end
		end += len(set.Samples)
		values, ranks := ix.values[lo:end], ix.ranks[lo:end]
		prevRank := 0
		prevValue := math.Inf(-1)
		for j, s := range set.Samples {
			if s.Rank <= prevRank || s.Rank > set.N {
				return nil, fmt.Errorf("index: node %d sample %d rank %d invalid (prev %d, n=%d)",
					i, j, s.Rank, prevRank, set.N)
			}
			if !(s.Value >= prevValue) {
				return nil, fmt.Errorf("index: node %d sample %d value %v out of order (prev %v)",
					i, j, s.Value, prevValue)
			}
			values[j] = s.Value
			ranks[j] = int32(s.Rank)
			prevRank = s.Rank
			prevValue = s.Value
		}
		ix.start[i+1] = int32(end)
		ix.n[i] = int32(set.N)
		ix.totalN += set.N
	}
	return ix, nil
}

// Nodes returns k, the number of nodes the index covers.
func (ix *Index) Nodes() int { return len(ix.n) }

// Samples returns the total number of indexed samples.
func (ix *Index) Samples() int { return len(ix.values) }

// TotalN returns |D| = Σ n_i.
func (ix *Index) TotalN() int { return ix.totalN }

// NodeN returns node i's dataset size n_i.
func (ix *Index) NodeN(i int) int { return int(ix.n[i]) }

// Node returns node i's value and rank columns (aliases into the index,
// must not be mutated) and its dataset size n_i.
func (ix *Index) Node(i int) (values []float64, ranks []int32, n int) {
	lo, hi := ix.start[i], ix.start[i+1]
	return ix.values[lo:hi:hi], ix.ranks[lo:hi:hi], int(ix.n[i])
}

// MemoryBytes reports the index's approximate resident size — the flat
// columns only, ignoring the struct header. Exposed so capacity
// planning and tests can reason about the build-once cost.
func (ix *Index) MemoryBytes() int {
	return 8*len(ix.values) + 4*len(ix.ranks) + 4*len(ix.start) + 4*len(ix.n)
}
