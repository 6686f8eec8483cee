package sampling

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"privrange/internal/stats"
)

func mustDraw(t *testing.T, sorted []float64, p float64, seed int64) *SampleSet {
	t.Helper()
	set, err := Draw(sorted, p, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestDrawValidatesInput(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(1)
	if _, err := Draw([]float64{3, 1}, 0.5, rng); err == nil {
		t.Error("unsorted input should fail")
	}
	if _, err := Draw([]float64{1, 2}, -0.1, rng); err == nil {
		t.Error("p < 0 should fail")
	}
	if _, err := Draw([]float64{1, 2}, 1.1, rng); err == nil {
		t.Error("p > 1 should fail")
	}
	if _, err := Draw([]float64{1, 2}, math.NaN(), rng); err == nil {
		t.Error("NaN p should fail")
	}
}

// TestDrawRankByRank is TestNodeStoreRankByRank for Draw: over many
// fixed-seed draws every rank's inclusion frequency is within 5 standard
// errors of p, and every value is the sorted input at its rank.
func TestDrawRankByRank(t *testing.T) {
	t.Parallel()
	const size, trials = 50, 4000
	sorted := make([]float64, size)
	for i := range sorted {
		sorted[i] = float64(i / 4) // runs of duplicates
	}
	for _, p := range []float64{0.2, 0.03, 0.9} {
		counts := make([]int, size+1)
		rng := stats.NewRNG(31)
		for k := 0; k < trials; k++ {
			set, err := Draw(sorted, p, rng.Child(int64(k)))
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, s := range set.Samples {
				if s.Value != sorted[s.Rank-1] {
					t.Fatalf("rank %d holds %v, want %v", s.Rank, s.Value, sorted[s.Rank-1])
				}
				counts[s.Rank]++
			}
		}
		checkInclusion(t, "Draw", counts, trials, p)
	}
}

func TestDrawExtremes(t *testing.T) {
	t.Parallel()
	sorted := []float64{1, 2, 3, 4, 5}
	all := mustDraw(t, sorted, 1, 1)
	if len(all.Samples) != 5 {
		t.Errorf("p=1 should take everything, got %d", len(all.Samples))
	}
	for j, s := range all.Samples {
		if s.Rank != j+1 || s.Value != sorted[j] {
			t.Errorf("sample %d = %+v", j, s)
		}
	}
	none := mustDraw(t, sorted, 0, 1)
	if len(none.Samples) != 0 {
		t.Errorf("p=0 should take nothing, got %d", len(none.Samples))
	}
	if none.N != 5 {
		t.Errorf("N should still report dataset size, got %d", none.N)
	}
}

func TestDrawRate(t *testing.T) {
	t.Parallel()
	sorted := make([]float64, 50000)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	set := mustDraw(t, sorted, 0.3, 42)
	rate := float64(len(set.Samples)) / float64(len(sorted))
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("empirical rate = %v, want ~0.3", rate)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("drawn set invalid: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		set  SampleSet
	}{
		{name: "rank not increasing", set: SampleSet{N: 5, Samples: []Sample{{Value: 1, Rank: 2}, {Value: 2, Rank: 2}}}},
		{name: "rank zero", set: SampleSet{N: 5, Samples: []Sample{{Value: 1, Rank: 0}}}},
		{name: "rank beyond n", set: SampleSet{N: 2, Samples: []Sample{{Value: 1, Rank: 3}}}},
		{name: "values decrease", set: SampleSet{N: 5, Samples: []Sample{{Value: 5, Rank: 1}, {Value: 4, Rank: 2}}}},
		{name: "NaN first", set: SampleSet{N: 5, Samples: []Sample{{Value: math.NaN(), Rank: 1}, {Value: 2, Rank: 2}}}},
		{name: "NaN middle", set: SampleSet{N: 5, Samples: []Sample{{Value: 1, Rank: 1}, {Value: math.NaN(), Rank: 2}, {Value: 3, Rank: 3}}}},
		{name: "NaN last", set: SampleSet{N: 5, Samples: []Sample{{Value: 1, Rank: 1}, {Value: math.NaN(), Rank: 2}}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := tc.set.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	good := SampleSet{N: 5, Samples: []Sample{{Value: math.Inf(-1), Rank: 1}, {Value: 1, Rank: 2}, {Value: 1, Rank: 3}, {Value: 7, Rank: 5}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

func TestPredecessorSuccessorStrict(t *testing.T) {
	t.Parallel()
	// Values 10,20,20,30,40 at ranks 1..5, all sampled.
	set := SampleSet{N: 5, Samples: []Sample{
		{Value: 10, Rank: 1}, {Value: 20, Rank: 2}, {Value: 20, Rank: 3},
		{Value: 30, Rank: 4}, {Value: 40, Rank: 5},
	}}
	cases := []struct {
		name     string
		l, u     float64
		wantPRnk int // 0 means !ok
		wantSRnk int
	}{
		{name: "interior", l: 20, u: 30, wantPRnk: 1, wantSRnk: 5},
		{name: "strict pred skips equal", l: 20, u: 20, wantPRnk: 1, wantSRnk: 4},
		{name: "before all", l: 5, u: 8, wantPRnk: 0, wantSRnk: 1},
		{name: "after all", l: 45, u: 50, wantPRnk: 5, wantSRnk: 0},
		{name: "covers all", l: 10, u: 40, wantPRnk: 0, wantSRnk: 0},
		{name: "between duplicates", l: 25, u: 25, wantPRnk: 3, wantSRnk: 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p, pok := set.PredecessorStrict(tc.l)
			if tc.wantPRnk == 0 {
				if pok {
					t.Errorf("predecessor = %+v, want none", p)
				}
			} else if !pok || p.Rank != tc.wantPRnk {
				t.Errorf("predecessor = %+v ok=%v, want rank %d", p, pok, tc.wantPRnk)
			}
			s, sok := set.SuccessorStrict(tc.u)
			if tc.wantSRnk == 0 {
				if sok {
					t.Errorf("successor = %+v, want none", s)
				}
			} else if !sok || s.Rank != tc.wantSRnk {
				t.Errorf("successor = %+v ok=%v, want rank %d", s, sok, tc.wantSRnk)
			}
		})
	}
}

func TestCountInRange(t *testing.T) {
	t.Parallel()
	set := SampleSet{N: 6, Samples: []Sample{
		{Value: 1, Rank: 1}, {Value: 3, Rank: 2}, {Value: 3, Rank: 3}, {Value: 8, Rank: 6},
	}}
	if c, err := set.CountInRange(2, 5); err != nil || c != 2 {
		t.Errorf("CountInRange(2,5) = %d, %v; want 2", c, err)
	}
	if c, err := set.CountInRange(0, 10); err != nil || c != 4 {
		t.Errorf("CountInRange(0,10) = %d, %v; want 4", c, err)
	}
	if c, err := set.CountInRange(4, 7); err != nil || c != 0 {
		t.Errorf("CountInRange(4,7) = %d, %v; want 0", c, err)
	}
	if _, err := set.CountInRange(5, 2); err == nil {
		t.Error("l > u should fail")
	}
}

func TestPredecessorSuccessorAgainstOracle(t *testing.T) {
	t.Parallel()
	f := func(raw []float64, lRaw, span float64) bool {
		if math.IsNaN(lRaw) || math.IsInf(lRaw, 0) || math.IsNaN(span) || math.IsInf(span, 0) {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Round(math.Mod(v, 20)))
		}
		sort.Float64s(xs)
		set, err := Draw(xs, 0.5, stats.NewRNG(9))
		if err != nil {
			return false
		}
		l := math.Round(math.Mod(lRaw, 25))
		u := l + math.Abs(math.Round(math.Mod(span, 10)))

		// Oracle: scan all samples.
		var wantP, wantS *Sample
		for i := range set.Samples {
			s := set.Samples[i]
			if s.Value < l {
				cp := s
				wantP = &cp
			}
			if s.Value > u && wantS == nil {
				cp := s
				wantS = &cp
			}
		}
		gotP, pok := set.PredecessorStrict(l)
		if (wantP != nil) != pok {
			return false
		}
		if pok && gotP != *wantP {
			return false
		}
		gotS, sok := set.SuccessorStrict(u)
		if (wantS != nil) != sok {
			return false
		}
		if sok && gotS != *wantS {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
