package sampling

import (
	"fmt"
	"math"
	"sort"

	"privrange/internal/stats"
)

// Sample is one sampled instance shipped from a node to the base station:
// the value together with its local rank (1-based position in the node's
// sorted dataset D_i). The rank is what lets the broker's RankCounting
// estimator turn two sampled boundary instances into an exact interior
// count.
type Sample struct {
	Value float64
	Rank  int
}

// SampleSet is the rank-sorted collection of samples from one node, plus
// the node's dataset size n_i — everything the broker knows about node i.
type SampleSet struct {
	// Samples are sorted by rank (equivalently by value with ties in rank
	// order).
	Samples []Sample
	// N is n_i, the node's total dataset size. Nodes report it alongside
	// samples (a single integer, negligible cost).
	N int
}

// Validate checks structural invariants: ranks strictly increasing within
// [1, N] and values non-decreasing in rank order. A NaN value has no
// place in that order, so it fails.
func (s *SampleSet) Validate() error {
	prevRank := 0
	prevValue := math.Inf(-1)
	for i, smp := range s.Samples {
		if smp.Rank <= prevRank {
			return fmt.Errorf("sampling: sample %d rank %d not increasing (prev %d)", i, smp.Rank, prevRank)
		}
		if smp.Rank > s.N {
			return fmt.Errorf("sampling: sample %d rank %d exceeds dataset size %d", i, smp.Rank, s.N)
		}
		if !(smp.Value >= prevValue) {
			return fmt.Errorf("sampling: sample %d value %v out of order (prev %v)", i, smp.Value, prevValue)
		}
		prevRank = smp.Rank
		prevValue = smp.Value
	}
	return nil
}

// MergeByRank returns, in a new slice, the rank-ascending union of two
// rank-ascending sample slices. It drops nothing: a rank present in both
// appears twice, which Validate rejects.
func MergeByRank(a, b []Sample) []Sample {
	out := make([]Sample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Rank <= b[j].Rank {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// PredecessorStrict returns the sampled instance with the largest rank
// whose value is strictly less than l. ok is false when no sample lies
// below l — the paper's ω̄_p case.
//
// Strictness is what keeps RankCounting exactly unbiased on datasets with
// duplicate values: an instance equal to l belongs to the query range
// [l, u] itself, not to the overshoot region, so it must not be treated
// as a boundary predecessor.
func (s *SampleSet) PredecessorStrict(l float64) (Sample, bool) {
	// Samples are sorted by value; find the first index with value >= l.
	idx := sort.Search(len(s.Samples), func(i int) bool {
		return s.Samples[i].Value >= l
	})
	if idx == 0 {
		return Sample{}, false
	}
	return s.Samples[idx-1], true
}

// SuccessorStrict returns the sampled instance with the smallest rank
// whose value is strictly greater than u. ok is false when no sample lies
// above u — the paper's ω̄_s case.
func (s *SampleSet) SuccessorStrict(u float64) (Sample, bool) {
	idx := sort.Search(len(s.Samples), func(i int) bool {
		return s.Samples[i].Value > u
	})
	if idx == len(s.Samples) {
		return Sample{}, false
	}
	return s.Samples[idx], true
}

// CountInRange returns the number of *samples* with value in [l, u]. This
// is the numerator of the naive BasicCounting estimator. It returns an
// error when l > u.
func (s *SampleSet) CountInRange(l, u float64) (int, error) {
	if l > u {
		return 0, fmt.Errorf("sampling: range [%v, %v] has l > u", l, u)
	}
	lo := sort.Search(len(s.Samples), func(i int) bool {
		return s.Samples[i].Value >= l
	})
	hi := sort.Search(len(s.Samples), func(i int) bool {
		return s.Samples[i].Value > u
	})
	return hi - lo, nil
}

// Draw Bernoulli-samples the sorted node dataset: instance j (1-based rank
// in sorted order) is included independently with probability p. sorted
// must be in non-decreasing order; Draw returns an error otherwise, or
// when p is outside [0, 1].
func Draw(sorted []float64, p float64, rng *stats.RNG) (*SampleSet, error) {
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("sampling: probability %v outside [0, 1]", p)
	}
	if !sort.Float64sAreSorted(sorted) {
		return nil, fmt.Errorf("sampling: Draw requires sorted input")
	}
	set := &SampleSet{N: len(sorted)}
	for j, v := range sorted {
		if rng.Bernoulli(p) {
			set.Samples = append(set.Samples, Sample{Value: v, Rank: j + 1})
		}
	}
	return set, nil
}
