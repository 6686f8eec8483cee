package sampling

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"privrange/internal/stats"
)

// oracle is a sort-based reference implementation of the order-statistic
// queries.
type oracle struct {
	sorted []float64
}

func newOracle(xs []float64) *oracle {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &oracle{sorted: s}
}

// countRange returns |{x : l ≤ x ≤ u}|.
func (o *oracle) countRange(l, u float64) int {
	lo := sort.SearchFloat64s(o.sorted, l)
	hi := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] > u })
	return max(hi-lo, 0)
}

// selectAll returns the value at every rank, 1 to size, via selectInto.
func selectAll(t *osTree) []float64 {
	samples := make([]Sample, t.size)
	for i := range samples {
		samples[i] = Sample{Rank: i + 1, Value: math.NaN()}
	}
	t.selectInto(samples)
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.Value
	}
	return out
}

// check returns an error when the tree breaks an invariant: every leaf
// holds 1 to leafRuns runs with positive counts summing to its total,
// values strictly ascend across leaves, and the totals sum to size.
func (t *osTree) check() error {
	size, prev := 0, math.Inf(-1)
	for li, lf := range t.leaves {
		if len(lf.values) == 0 || len(lf.values) > leafRuns || len(lf.counts) != len(lf.values) {
			return fmt.Errorf("leaf %d holds %d values and %d counts", li, len(lf.values), len(lf.counts))
		}
		total := 0
		for i, v := range lf.values {
			if !(v > prev) && !(li == 0 && i == 0) {
				return fmt.Errorf("leaf %d value %v does not exceed %v", li, v, prev)
			}
			if lf.counts[i] < 1 {
				return fmt.Errorf("leaf %d run %d has count %d", li, i, lf.counts[i])
			}
			total += lf.counts[i]
			prev = v
		}
		if total != lf.total {
			return fmt.Errorf("leaf %d total %d, runs sum to %d", li, lf.total, total)
		}
		size += total
	}
	if size != t.size {
		return fmt.Errorf("size %d, leaves hold %d", t.size, size)
	}
	return nil
}

func TestOSTreeBasic(t *testing.T) {
	t.Parallel()
	var tree osTree
	if tree.size != 0 || tree.countRange(-1, 1) != 0 || len(selectAll(&tree)) != 0 {
		t.Fatal("zero tree not empty")
	}
	for _, v := range []float64{5, 3, 8, 3, 1, 9, 5, 5} {
		tree.insert(v)
	}
	if err := tree.check(); err != nil {
		t.Fatal(err)
	}
	if tree.size != 8 || len(tree.leaves) != 1 {
		t.Fatalf("size %d in %d leaves, want 8 in 1", tree.size, len(tree.leaves))
	}
	if got := fmt.Sprint(tree.leaves[0].values, tree.leaves[0].counts); got != "[1 3 5 8 9] [1 2 3 1 1]" {
		t.Errorf("runs = %s, want [1 3 5 8 9] [1 2 3 1 1]", got)
	}
	for _, c := range []struct {
		l, u float64
		want int
	}{{3, 5, 5}, {5, 5, 3}, {3.5, 4.5, 0}, {-1, 1, 1}, {9, 20, 1}, {10, 20, 0}, {math.Inf(-1), math.Inf(1), 8}} {
		if got := tree.countRange(c.l, c.u); got != c.want {
			t.Errorf("countRange(%v, %v) = %d, want %d", c.l, c.u, got, c.want)
		}
	}
	// An equal value joins the stored run and keeps its representative,
	// so −0 stays −0 after +0 arrives.
	var zeros osTree
	zeros.insert(math.Copysign(0, -1))
	zeros.insert(0)
	if got := selectAll(&zeros); len(got) != 2 || !math.Signbit(got[0]) || !math.Signbit(got[1]) {
		t.Errorf("−0 then +0 selects %v, want two −0", got)
	}
}

func TestOSTreeSelect(t *testing.T) {
	t.Parallel()
	var tree osTree
	for _, v := range []float64{7, 1, 4, 4, 9, 2} {
		tree.insert(v)
	}
	want := []float64{1, 2, 4, 4, 7, 9}
	for r := 1; r <= len(want); r++ {
		one := []Sample{{Rank: r}}
		tree.selectInto(one)
		if one[0].Value != want[r-1] {
			t.Errorf("rank %d selects %v, want %v", r, one[0].Value, want[r-1])
		}
	}
	// Sorted and reverse-sorted inserts of distinct values split at the
	// last and the first leaf; every rank still selects its value.
	for _, step := range []float64{1, -1} {
		var tree osTree
		const n = 5 * leafRuns
		for i := 0; i < n; i++ {
			tree.insert(step * float64(i))
		}
		if err := tree.check(); err != nil {
			t.Fatal(err)
		}
		if len(tree.leaves) < n/leafRuns {
			t.Errorf("step %v: %d leaves for %d runs", step, len(tree.leaves), n)
		}
		for r, v := range selectAll(&tree) {
			want := float64(r)
			if step < 0 {
				want = float64(r - n + 1)
			}
			if v != want {
				t.Fatalf("step %v: rank %d selects %v, want %v", step, r+1, v, want)
			}
		}
	}
}

// TestOSTreeSelectIntoMatchesSelect checks the one-pass multi-select
// against the sorted slice, rank by rank, on duplicate-heavy and
// all-distinct trees of up to a few dozen leaves, on random ascending
// rank subsets that include the first and last rank.
func TestOSTreeSelectIntoMatchesSelect(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		var tree osTree
		size := 1 + rng.Intn(300+20*trial)
		xs := make([]float64, size)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = float64(rng.Intn(1 + trial%40))
			} else {
				xs[i] = rng.Float64()
			}
			tree.insert(xs[i])
		}
		sorted := newOracle(xs).sorted
		var samples []Sample
		keep := rng.Float64()
		for r := 1; r <= size; r++ {
			if r == 1 || r == size || rng.Float64() < keep {
				samples = append(samples, Sample{Rank: r, Value: math.NaN()})
			}
		}
		tree.selectInto(samples)
		for _, s := range samples {
			if want := sorted[s.Rank-1]; s.Value != want {
				t.Fatalf("trial %d: rank %d got %v, want %v", trial, s.Rank, s.Value, want)
			}
		}
	}
}

func TestOSTreeMatchesOracle(t *testing.T) {
	t.Parallel()
	f := func(seed int64, size uint16, continuous bool, bounds []float64) bool {
		// Integer data forces duplicates; continuous data is all distinct
		// and spans many leaves.
		rng := stats.NewRNG(seed)
		xs := make([]float64, int(size)%3000)
		for i := range xs {
			if continuous {
				xs[i] = 100 * rng.Float64()
			} else {
				xs[i] = float64(rng.Intn(50))
			}
		}
		var tree osTree
		for _, v := range xs {
			tree.insert(v)
		}
		ref := newOracle(xs)
		if tree.size != len(xs) || tree.check() != nil {
			return false
		}
		// Range bounds: the stored values themselves and arbitrary
		// finite numbers folded into the data's span.
		ps := append([]float64(nil), xs...)
		for _, b := range bounds {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				continue
			}
			if p := math.Mod(b, 110); continuous {
				ps = append(ps, p)
			} else {
				ps = append(ps, math.Round(p))
			}
		}
		for i := 0; i+1 < len(ps); i += 2 {
			l, u := min(ps[i], ps[i+1]), max(ps[i], ps[i+1])
			if tree.countRange(l, u) != ref.countRange(l, u) || tree.countRange(l, l) != ref.countRange(l, l) {
				return false
			}
		}
		for r, v := range selectAll(&tree) {
			if v != ref.sorted[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
