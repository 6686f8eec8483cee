package sampling

import (
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

func (o *oracle) rankLT(v float64) int {
	return sort.SearchFloat64s(o.sorted, v)
}

func (o *oracle) rankLE(v float64) int {
	return sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] > v })
}

func TestOSTreeBasic(t *testing.T) {
	t.Parallel()
	tree := NewOSTree(1)
	if tree.Len() != 0 {
		t.Fatal("new tree not empty")
	}
	if _, ok := tree.Min(); ok {
		t.Error("Min on empty tree should report !ok")
	}
	if _, ok := tree.Max(); ok {
		t.Error("Max on empty tree should report !ok")
	}
	for _, v := range []float64{5, 3, 8, 3, 1, 9, 5, 5} {
		tree.Insert(v)
	}
	if tree.Len() != 8 {
		t.Errorf("Len = %d, want 8", tree.Len())
	}
	if min, _ := tree.Min(); min != 1 {
		t.Errorf("Min = %v, want 1", min)
	}
	if max, _ := tree.Max(); max != 9 {
		t.Errorf("Max = %v, want 9", max)
	}
	for r, want := range []float64{1, 3, 3, 5, 5, 5, 8, 9} {
		if got, err := tree.Select(r + 1); err != nil || got != want {
			t.Fatalf("Select(%d) = %v, %v; want %v", r+1, got, err, want)
		}
	}
	if r := tree.RankLT(5); r != 3 {
		t.Errorf("RankLT(5) = %d, want 3", r)
	}
	if r := tree.RankLE(5); r != 6 {
		t.Errorf("RankLE(5) = %d, want 6", r)
	}
	if c, err := tree.CountRange(3, 5); err != nil || c != 5 {
		t.Errorf("CountRange(3,5) = %d, %v; want 5", c, err)
	}
	if _, err := tree.CountRange(5, 3); err == nil {
		t.Error("CountRange with l > u should fail")
	}
}

func TestOSTreeSelect(t *testing.T) {
	t.Parallel()
	tree := NewOSTree(2)
	values := []float64{7, 1, 4, 4, 9, 2}
	for _, v := range values {
		tree.Insert(v)
	}
	want := []float64{1, 2, 4, 4, 7, 9}
	for r := 1; r <= len(want); r++ {
		got, err := tree.Select(r)
		if err != nil {
			t.Fatalf("Select(%d): %v", r, err)
		}
		if got != want[r-1] {
			t.Errorf("Select(%d) = %v, want %v", r, got, want[r-1])
		}
	}
	if _, err := tree.Select(0); err == nil {
		t.Error("Select(0) should fail")
	}
	if _, err := tree.Select(7); err == nil {
		t.Error("Select(len+1) should fail")
	}
}

// TestOSTreeSelectIntoMatchesSelect checks the one-walk multi-select
// against Select, rank by rank, on duplicate-heavy trees and on random
// ascending rank subsets, including the first and last rank.
func TestOSTreeSelectIntoMatchesSelect(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		tree := NewOSTree(int64(trial))
		size := 1 + rng.Intn(300)
		for i := 0; i < size; i++ {
			tree.Insert(float64(rng.Intn(1 + trial%40)))
		}
		var samples []Sample
		keep := rng.Float64()
		for r := 1; r <= size; r++ {
			if r == 1 || r == size || rng.Float64() < keep {
				samples = append(samples, Sample{Rank: r, Value: math.NaN()})
			}
		}
		tree.selectInto(samples)
		for _, s := range samples {
			if want, err := tree.Select(s.Rank); err != nil || s.Value != want {
				t.Fatalf("trial %d: rank %d got %v, Select gives %v (%v)", trial, s.Rank, s.Value, want, err)
			}
		}
	}
}

func TestOSTreeMatchesOracle(t *testing.T) {
	t.Parallel()
	f := func(raw []float64, probes []float64) bool {
		// Discretize to force duplicates; drop non-finite inputs.
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Round(math.Mod(v, 50)))
		}
		tree := NewOSTree(7)
		for _, v := range xs {
			tree.Insert(v)
		}
		ref := newOracle(xs)
		if tree.Len() != len(xs) {
			return false
		}
		for _, pRaw := range probes {
			if math.IsNaN(pRaw) || math.IsInf(pRaw, 0) {
				continue
			}
			p := math.Round(math.Mod(pRaw, 60))
			if tree.RankLT(p) != ref.rankLT(p) {
				return false
			}
			if tree.RankLE(p) != ref.rankLE(p) {
				return false
			}
		}
		// Select is the inverse of rank.
		for r := 1; r <= len(xs); r++ {
			v, err := tree.Select(r)
			if err != nil {
				return false
			}
			if tree.RankLT(v) >= r || tree.RankLE(v) < r {
				return false
			}
			if v != ref.sorted[r-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOSTreeBalanced(t *testing.T) {
	t.Parallel()
	tree := NewOSTree(3)
	const n = 1 << 14
	// Adversarial sorted insertion order: a plain BST would degenerate to
	// height n.
	for i := 0; i < n; i++ {
		tree.Insert(float64(i))
	}
	// Expected treap height is O(log n); allow generous slack.
	if h := tree.Height(); h > 4*15 {
		t.Errorf("height %d too large for treap of %d sorted inserts", h, n)
	}
}

func TestOSTreeDeterministicShape(t *testing.T) {
	t.Parallel()
	build := func() int {
		tree := NewOSTree(11)
		for i := 0; i < 1000; i++ {
			tree.Insert(float64(i % 97))
		}
		return tree.Height()
	}
	if build() != build() {
		t.Error("same seed should yield identical tree shape")
	}
}

func BenchmarkOSTreeInsert(b *testing.B) {
	tree := NewOSTree(1)
	rng := stats.NewRNG(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.Insert(rng.Float64() * 1000)
	}
}

func BenchmarkOSTreeRank(b *testing.B) {
	tree := NewOSTree(1)
	rng := stats.NewRNG(2)
	for i := 0; i < 100000; i++ {
		tree.Insert(rng.Float64() * 1000)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree.RankLE(float64(i % 1000))
	}
}
