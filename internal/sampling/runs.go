// Package sampling implements the node-side sampling substrate of the
// paper: each node's local data in sorted order, kept as run-length
// leaves so a local rank r(x, i) stays cheap even while data keeps
// arriving, Bernoulli rank-annotated sampling that costs O(samples)
// random variates rather than O(n_i), and sample stores that support
// the paper's accuracy-driven sample top-up ("if the existing samples
// are unable to satisfy the query accuracy requirement, more samples
// should be drawn").
//
// Rank semantics: node i keeps its local dataset D_i in sorted order;
// the j-th instance in that order has rank j (1-based). Duplicate values
// are distinct instances with consecutive ranks, so every rank computation
// below is exact even on integer-valued sensor data — this is what keeps
// the RankCounting estimator exactly unbiased (see internal/estimator).
package sampling

import "slices"

// leafRuns is the most runs a leaf holds: an insert that adds one more
// splits the leaf in half.
const leafRuns = 128

// osTree is an order-statistic tree of height two over a multiset of
// float64 values. Its leaves partition the distinct values in ascending
// order; each leaf is a run-length slice, so duplicates of a value share
// one run. Walks skip a leaf whole by its total and stream a visited
// leaf's runs from two contiguous slices instead of chasing pointers. A
// value equal to a stored one (−0 and +0 included) joins that run and
// keeps the stored representative. The zero value is an empty tree.
type osTree struct {
	leaves []runLeaf
	size   int // instances stored, counting duplicates
}

// runLeaf holds distinct values in ascending order: counts[i] instances
// of values[i], total of them in all.
type runLeaf struct {
	values []float64
	counts []int
	total  int
}

// insert adds one instance of v. v must not be NaN.
func (t *osTree) insert(v float64) {
	t.size++
	if len(t.leaves) == 0 {
		t.leaves = append(t.leaves, newLeaf([]float64{v}, []int{1}))
		return
	}
	// v belongs to the first leaf whose largest value is at least v, or
	// to the last leaf when v exceeds them all.
	lo, hi := 0, len(t.leaves)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vs := t.leaves[m].values; vs[len(vs)-1] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	lf := &t.leaves[lo]
	lf.total++
	i := searchValues(lf.values, v)
	if i < len(lf.values) && lf.values[i] == v {
		lf.counts[i]++
		return
	}
	lf.values = slices.Insert(lf.values, i, v)
	lf.counts = slices.Insert(lf.counts, i, 1)
	if len(lf.values) > leafRuns {
		t.split(lo)
	}
}

// split moves the upper half of leaf li's runs into a new leaf after it.
func (t *osTree) split(li int) {
	lf := &t.leaves[li]
	h := len(lf.values) / 2
	upper := newLeaf(lf.values[h:], lf.counts[h:])
	lf.values, lf.counts = lf.values[:h], lf.counts[:h]
	lf.total -= upper.total
	t.leaves = slices.Insert(t.leaves, li+1, upper)
}

// newLeaf returns a leaf holding copies of values and counts, with room
// to grow to a split without reallocating.
func newLeaf(values []float64, counts []int) runLeaf {
	lf := runLeaf{
		values: append(make([]float64, 0, leafRuns+1), values...),
		counts: append(make([]int, 0, leafRuns+1), counts...),
	}
	for _, c := range counts {
		lf.total += c
	}
	return lf
}

// searchValues returns the index of the first value in vs at least v.
func searchValues(vs []float64, v float64) int {
	lo, hi := 0, len(vs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vs[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// countRange returns |{x : l ≤ x ≤ u}|. It counts a leaf inside the
// range by its total and reads runs only in the leaves a bound cuts, so
// it costs O(leaves + leafRuns).
func (t *osTree) countRange(l, u float64) int {
	count := 0
	for li := range t.leaves {
		lf := &t.leaves[li]
		first, last := lf.values[0], lf.values[len(lf.values)-1]
		switch {
		case last < l: // below the range
		case first > u: // above it, as is every later leaf
			return count
		case first >= l && last <= u:
			count += lf.total
		default:
			for i := searchValues(lf.values, l); i < len(lf.values) && lf.values[i] <= u; i++ {
				count += lf.counts[i]
			}
		}
	}
	return count
}

// selectInto sets samples[j].Value to the value of the instance with
// rank samples[j].Rank, for every j. The ranks must be strictly
// ascending within [1, size]. It is one forward pass: a leaf holding no
// wanted rank is skipped by its total, and a visited leaf's runs are
// read in order.
func (t *osTree) selectInto(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	j, end := 0, 0 // end: the rank of the last instance passed so far
	want := samples[0].Rank
	for li := range t.leaves {
		lf := &t.leaves[li]
		if want > end+lf.total {
			end += lf.total
			continue
		}
		for i, c := range lf.counts {
			end += c
			for want <= end {
				samples[j].Value = lf.values[i]
				if j++; j == len(samples) {
					return
				}
				want = samples[j].Rank
			}
		}
	}
}
