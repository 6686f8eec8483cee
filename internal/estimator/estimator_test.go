package estimator

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"privrange/internal/dataset"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// fixedSet builds a SampleSet directly for four-case unit tests.
func fixedSet(n int, samples ...sampling.Sample) *sampling.SampleSet {
	return &sampling.SampleSet{N: n, Samples: samples}
}

func TestQueryValidate(t *testing.T) {
	t.Parallel()
	if err := (Query{L: 1, U: 2}).Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := (Query{L: 2, U: 1}).Validate(); err == nil {
		t.Error("L > U should fail")
	}
	if err := (Query{L: math.NaN(), U: 1}).Validate(); err == nil {
		t.Error("NaN bound should fail")
	}
}

func TestRankCountingFourCases(t *testing.T) {
	t.Parallel()
	const p = 0.5
	rc := RankCounting{P: p}
	// Node dataset (conceptually): values 10..100 at ranks 1..10.
	cases := []struct {
		name string
		set  *sampling.SampleSet
		q    Query
		want float64
	}{
		{
			name: "both boundaries sampled",
			// pred of l=35 is (30, rank 3); succ of u=65 is (70, rank 7).
			// γ(pred, succ) = 7-3+1 = 5; estimate = 5 - 2/p = 1.
			set: fixedSet(10,
				sampling.Sample{Value: 30, Rank: 3},
				sampling.Sample{Value: 50, Rank: 5},
				sampling.Sample{Value: 70, Rank: 7},
			),
			q:    Query{L: 35, U: 65},
			want: 5 - 2/p,
		},
		{
			name: "predecessor only",
			// No sample above u=65: γ(pred, lst) = 10-3+1 = 8; minus 1/p.
			set: fixedSet(10,
				sampling.Sample{Value: 30, Rank: 3},
				sampling.Sample{Value: 50, Rank: 5},
			),
			q:    Query{L: 35, U: 65},
			want: 8 - 1/p,
		},
		{
			name: "successor only",
			// No sample below l=35: γ(fst, succ) = rank 7; minus 1/p.
			set: fixedSet(10,
				sampling.Sample{Value: 50, Rank: 5},
				sampling.Sample{Value: 70, Rank: 7},
			),
			q:    Query{L: 35, U: 65},
			want: 7 - 1/p,
		},
		{
			name: "neither boundary sampled",
			set: fixedSet(10,
				sampling.Sample{Value: 50, Rank: 5},
			),
			q:    Query{L: 35, U: 65},
			want: 10,
		},
		{
			name: "no samples at all",
			set:  fixedSet(10),
			q:    Query{L: 35, U: 65},
			want: 10,
		},
		{
			name: "empty node",
			set:  fixedSet(0),
			q:    Query{L: 35, U: 65},
			want: 0,
		},
		{
			name: "sample equal to l is inside range, not predecessor",
			// Value 35 == l must not count as the strict predecessor.
			set: fixedSet(10,
				sampling.Sample{Value: 35, Rank: 4},
				sampling.Sample{Value: 70, Rank: 7},
			),
			q:    Query{L: 35, U: 65},
			want: 7 - 1/p, // successor-only case
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := rc.EstimateNode(tc.set, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("EstimateNode = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestEstimatorInputValidation(t *testing.T) {
	t.Parallel()
	set := fixedSet(5)
	if _, err := (RankCounting{P: 0}).EstimateNode(set, Query{L: 0, U: 1}); err == nil {
		t.Error("p=0 should fail")
	}
	if _, err := (RankCounting{P: 0.5}).EstimateNode(set, Query{L: 2, U: 1}); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := (RankCounting{P: 0.5}).Estimate([]*sampling.SampleSet{nil}, Query{L: 0, U: 1}); err == nil {
		t.Error("nil set should fail")
	}
	if _, err := (BasicCounting{P: 1.5}).EstimateNode(set, Query{L: 0, U: 1}); err == nil {
		t.Error("p>1 should fail")
	}
	if _, err := (BasicCounting{P: 0.5}).Estimate([]*sampling.SampleSet{nil}, Query{L: 0, U: 1}); err == nil {
		t.Error("nil set should fail for basic")
	}
}

func TestBasicCountingExactAtFullSampling(t *testing.T) {
	t.Parallel()
	values := []float64{1, 2, 2, 3, 5, 8, 13}
	sort.Float64s(values)
	set, err := sampling.Draw(values, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	bc := BasicCounting{P: 1}
	got, err := bc.EstimateNode(set, Query{L: 2, U: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Errorf("estimate = %v, want 5", got)
	}
}

func TestRankCountingExactAtFullSampling(t *testing.T) {
	t.Parallel()
	values := []float64{1, 2, 2, 3, 5, 8, 13}
	set, err := sampling.Draw(values, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rc := RankCounting{P: 1}
	cases := []struct {
		q    Query
		want float64
	}{
		{q: Query{L: 2, U: 8}, want: 5},
		{q: Query{L: 0, U: 100}, want: 7},
		{q: Query{L: 4, U: 4}, want: 0},
		{q: Query{L: 2, U: 2}, want: 2},
		{q: Query{L: 13, U: 20}, want: 1},
	}
	for _, tc := range cases {
		got, err := rc.EstimateNode(set, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("query %+v: estimate = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestRankCountingUnbiased is the statistical heart of Theorem 3.1/3.2:
// over many independent sample draws, the mean estimate must converge to
// the true count within a few standard errors, and the empirical variance
// must respect the 2k(1−p)/p² bound.
func TestRankCountingUnbiased(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 21, Records: 4000})
	if err != nil {
		t.Fatal(err)
	}
	const (
		k      = 8
		p      = 0.08
		trials = 3000
	)
	q := Query{L: 45, U: 85}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	sortedParts := make([][]float64, k)
	for i, part := range parts {
		cp := make([]float64, len(part))
		copy(cp, part)
		sort.Float64s(cp)
		sortedParts[i] = cp
	}
	rc := RankCounting{P: p}
	root := stats.NewRNG(77)
	var errs stats.Running
	for trial := 0; trial < trials; trial++ {
		rng := root.Child(int64(trial))
		sets := make([]*sampling.SampleSet, k)
		for i := range sets {
			set, err := sampling.Draw(sortedParts[i], p, rng.Child(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = set
		}
		est, err := rc.Estimate(sets, q)
		if err != nil {
			t.Fatal(err)
		}
		errs.Add(est - float64(truth))
	}
	// Unbiasedness: |mean error| within 4 standard errors of zero.
	if se := errs.StdErr(); math.Abs(errs.Mean()) > 4*se {
		t.Errorf("mean error %v exceeds 4 SE (%v): estimator looks biased", errs.Mean(), 4*se)
	}
	// Variance bound (GlobalVariance): empirical variance ≤ 2k(1−p)/p²
	// with slack for sampling noise.
	bound := rc.VarianceBound(k)
	if errs.Variance() > bound*1.1 {
		t.Errorf("empirical variance %v exceeds bound %v", errs.Variance(), bound)
	}
}

// TestRankCountingUnbiasedWithDuplicates stresses the strict-boundary tie
// handling: a heavily discretized dataset where boundary collisions are
// the norm must still yield an unbiased estimate.
func TestRankCountingUnbiasedWithDuplicates(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(5)
	values := make([]float64, 2000)
	for i := range values {
		values[i] = float64(rng.Intn(10)) // only 10 distinct values
	}
	sort.Float64s(values)
	truth := 0
	q := Query{L: 3, U: 6}
	for _, v := range values {
		if v >= q.L && v <= q.U {
			truth++
		}
	}
	const (
		p      = 0.05
		trials = 4000
	)
	rc := RankCounting{P: p}
	root := stats.NewRNG(6)
	var errs stats.Running
	for trial := 0; trial < trials; trial++ {
		set, err := sampling.Draw(values, p, root.Child(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		est, err := rc.EstimateNode(set, q)
		if err != nil {
			t.Fatal(err)
		}
		errs.Add(est - float64(truth))
	}
	if se := errs.StdErr(); math.Abs(errs.Mean()) > 4*se {
		t.Errorf("mean error %v exceeds 4 SE (%v) on duplicate-heavy data", errs.Mean(), 4*se)
	}
	if bound := rc.NodeVarianceBound(); errs.Variance() > bound*1.1 {
		t.Errorf("empirical variance %v exceeds per-node bound %v", errs.Variance(), bound)
	}
}

// TestBasicCountingUnbiased confirms the baseline is also unbiased (its
// weakness is variance, not bias).
func TestBasicCountingUnbiased(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.CarbonMonoxide, dataset.GenerateConfig{Seed: 31, Records: 3000})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{L: 30, U: 70}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, len(series.Values))
	copy(values, series.Values)
	sort.Float64s(values)
	const (
		p      = 0.1
		trials = 2000
	)
	bc := BasicCounting{P: p}
	root := stats.NewRNG(8)
	var errs stats.Running
	for trial := 0; trial < trials; trial++ {
		set, err := sampling.Draw(values, p, root.Child(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		est, err := bc.EstimateNode(set, q)
		if err != nil {
			t.Fatal(err)
		}
		errs.Add(est - float64(truth))
	}
	if se := errs.StdErr(); math.Abs(errs.Mean()) > 4*se {
		t.Errorf("mean error %v exceeds 4 SE (%v)", errs.Mean(), 4*se)
	}
	// Analytic variance γ(1−p)/p should match empirically (±15%).
	want := bc.VarianceBound(float64(truth))
	if got := errs.Variance(); math.Abs(got-want)/want > 0.15 {
		t.Errorf("empirical variance %v, analytic %v", got, want)
	}
}

// TestRankBeatsBasicOnWideRanges checks the paper's §III-A claim: for wide
// ranges, RankCounting's variance is far below BasicCounting's.
func TestRankBeatsBasicOnWideRanges(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.ParticulateMatter, dataset.GenerateConfig{Seed: 41, Records: 8000})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, len(series.Values))
	copy(values, series.Values)
	sort.Float64s(values)
	q := Query{L: 0, U: 300} // the whole domain: worst case for Basic
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	const (
		p      = 0.05
		trials = 1500
	)
	rc := RankCounting{P: p}
	bc := BasicCounting{P: p}
	root := stats.NewRNG(13)
	var rankErrs, basicErrs stats.Running
	for trial := 0; trial < trials; trial++ {
		set, err := sampling.Draw(values, p, root.Child(int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		re, err := rc.EstimateNode(set, q)
		if err != nil {
			t.Fatal(err)
		}
		be, err := bc.EstimateNode(set, q)
		if err != nil {
			t.Fatal(err)
		}
		rankErrs.Add(re - float64(truth))
		basicErrs.Add(be - float64(truth))
	}
	if rankErrs.Variance()*10 > basicErrs.Variance() {
		t.Errorf("RankCounting variance %v should be far below BasicCounting %v on wide ranges",
			rankErrs.Variance(), basicErrs.Variance())
	}
}

// TestTheorem33Coverage verifies the end-to-end (α, δ) guarantee: sampling
// at RequiredProbability, the fraction of trials with |error| ≤ αn must be
// at least δ.
func TestTheorem33Coverage(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.NitrogenDioxide, dataset.GenerateConfig{Seed: 51, Records: 6000})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	acc := Accuracy{Alpha: 0.05, Delta: 0.7}
	n := series.Len()
	p, err := RequiredProbability(acc, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 1 {
		t.Fatalf("required probability %v out of range", p)
	}
	parts, err := series.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	sortedParts := make([][]float64, k)
	for i, part := range parts {
		cp := make([]float64, len(part))
		copy(cp, part)
		sort.Float64s(cp)
		sortedParts[i] = cp
	}
	q := Query{L: 40, U: 90}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	rc := RankCounting{P: p}
	root := stats.NewRNG(19)
	const trials = 800
	within := 0
	for trial := 0; trial < trials; trial++ {
		rng := root.Child(int64(trial))
		sets := make([]*sampling.SampleSet, k)
		for i := range sets {
			set, err := sampling.Draw(sortedParts[i], p, rng.Child(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = set
		}
		est, err := rc.Estimate(sets, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-float64(truth)) <= acc.Alpha*float64(n) {
			within++
		}
	}
	coverage := float64(within) / trials
	if coverage < acc.Delta {
		t.Errorf("coverage %v below guaranteed delta %v", coverage, acc.Delta)
	}
}

func TestAccuracyValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		acc  Accuracy
		ok   bool
	}{
		{name: "valid", acc: Accuracy{Alpha: 0.1, Delta: 0.9}, ok: true},
		{name: "alpha zero", acc: Accuracy{Alpha: 0, Delta: 0.9}, ok: false},
		{name: "alpha one", acc: Accuracy{Alpha: 1, Delta: 0.9}, ok: false},
		{name: "delta zero", acc: Accuracy{Alpha: 0.1, Delta: 0}, ok: false},
		{name: "delta one", acc: Accuracy{Alpha: 0.1, Delta: 1}, ok: false},
	}
	for _, tc := range cases {
		if err := tc.acc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestRequiredProbabilityFormula(t *testing.T) {
	t.Parallel()
	// p is the positive root of (1−δ)(αn)²·p² + 2k·p − 2k = 0 with k=8,
	// n=10000, α=0.05, δ=0.5, where the variance bound meets the budget.
	const k = 8
	acc := Accuracy{Alpha: 0.05, Delta: 0.5}
	p, err := RequiredProbability(acc, k, 10000)
	if err != nil {
		t.Fatal(err)
	}
	a := (1 - acc.Delta) * (acc.Alpha * 10000) * (acc.Alpha * 10000)
	want := (-2*k + math.Sqrt(4*k*k+8*k*a)) / (2 * a)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("p = %v, want %v", p, want)
	}
	if got, budget := GlobalVariance(p, k), (1-acc.Delta)*(acc.Alpha*10000)*(acc.Alpha*10000); math.Abs(got-budget) > 1e-9*budget {
		t.Errorf("variance at the required rate = %v, want the Chebyshev budget %v", got, budget)
	}
	// Tiny dataset: the root stays below 1, since p = 1 has variance 0.
	p, err = RequiredProbability(acc, k, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(p > 0 && p < 1) {
		t.Errorf("p = %v, want inside (0, 1)", p)
	}
	if _, err := RequiredProbability(acc, 0, 10); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := RequiredProbability(acc, 1, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

// sideVariance returns the mean and variance of one boundary side's
// error e_A (THEORY §1) by summing its exact distribution: e_A = G − 1/p
// with probability p(1−p)^{G−1} for G = 1..A, and A with probability
// (1−p)^A. step extends the sums from A−1 to A, so a sweep over A costs
// one term per A.
type sideVariance struct {
	p, mean, second, tail float64 // tail = (1−p)^A
	a                     int
}

func newSideVariance(p float64) *sideVariance { return &sideVariance{p: p, tail: 1} }

func (s *sideVariance) step() {
	s.a++
	e := float64(s.a) - 1/s.p
	w := s.p * s.tail // Pr[G = A]
	s.mean += w * e
	s.second += w * e * e
	s.tail *= 1 - s.p
}

// moments returns E[e_A] and Var(e_A) at the current A.
func (s *sideVariance) moments() (mean, variance float64) {
	a := float64(s.a)
	mean = s.mean + s.tail*a
	return mean, s.second + s.tail*a*a - mean*mean
}

// TestSideVarianceBound is THEORY §1's bound as a property: over a grid of
// p and every A up to 10⁴, one side's exact error variance never exceeds
// Var(G) = (1−p)/p², equals (1−p)(1−(1−p)^A)/p², grows with A and reaches
// the bound as A grows.
func TestSideVarianceBound(t *testing.T) {
	t.Parallel()
	for i := 1; i <= 99; i++ {
		p := float64(i) / 100
		bound := (1 - p) / (p * p)
		if got := GlobalVariance(p, 1) / 2; math.Abs(got-bound) > 1e-12*bound {
			t.Fatalf("p=%v: GlobalVariance(p, 1)/2 = %v, want (1−p)/p² = %v", p, got, bound)
		}
		sv := newSideVariance(p)
		prev := -1.0
		for a := 0; a <= 10000; a++ {
			if a > 0 {
				sv.step()
			}
			mean, v := sv.moments()
			if math.Abs(mean) > 1e-9*(1+1/p) {
				t.Fatalf("p=%v A=%d: E[e_A] = %v, want 0 (unbiased)", p, a, mean)
			}
			if v > bound*(1+1e-9) {
				t.Fatalf("p=%v A=%d: Var(e_A) = %v exceeds (1−p)/p² = %v", p, a, v, bound)
			}
			closed := (1 - p) * (1 - math.Pow(1-p, float64(a))) / (p * p)
			if math.Abs(v-closed) > 1e-9*bound {
				t.Fatalf("p=%v A=%d: Var(e_A) = %v, closed form %v", p, a, v, closed)
			}
			if v < prev-1e-9*bound {
				t.Fatalf("p=%v A=%d: Var(e_A) = %v fell from %v", p, a, v, prev)
			}
			prev = v
		}
		if prev < bound*(1-1e-6) {
			t.Errorf("p=%v: Var(e_A) at A=10⁴ is %v, not yet the bound %v", p, prev, bound)
		}
	}
}

// TestGlobalVarianceMonteCarlo measures RankCounting's global error
// variance on fixed seeds. The query sits far from both ends of every
// node's data, so each side's variance is within a part in 10³ of
// (1−p)/p² and the whole estimate's variance is, to that precision, the
// bound 2k(1−p)/p² itself: the empirical variance must match it within
// four standard errors, which also shows the paper's 8k/p² is 4/(1−p)
// times loose.
func TestGlobalVarianceMonteCarlo(t *testing.T) {
	t.Parallel()
	const (
		k      = 8
		ni     = 400
		trials = 4000
	)
	data := make([]float64, ni)
	for i := range data {
		data[i] = float64(i)
	}
	q := Query{L: 150, U: 249} // A = 150 and m = 150 on every node
	truth := float64(k * 100)
	for _, tc := range []struct {
		p    float64
		seed int64
	}{{0.05, 101}, {0.2, 202}} {
		rc := RankCounting{P: tc.p}
		root := stats.NewRNG(tc.seed)
		var errs stats.Running
		sets := make([]*sampling.SampleSet, k)
		for trial := 0; trial < trials; trial++ {
			rng := root.Child(int64(trial))
			for i := range sets {
				set, err := sampling.Draw(data, tc.p, rng.Child(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				sets[i] = set
			}
			est, err := rc.Estimate(sets, q)
			if err != nil {
				t.Fatal(err)
			}
			errs.Add(est - truth)
		}
		bound := GlobalVariance(tc.p, k)
		// The sample variance of a sum of 2k independent sides has
		// relative standard error √((2 + κ)/trials), κ the sum's excess
		// kurtosis: a Geometric(p) side has 6 + p²/(1−p), and the 2k
		// equal sides divide it by 2k.
		kappa := (6 + tc.p*tc.p/(1-tc.p)) / (2 * k)
		se := bound * math.Sqrt((2+kappa)/trials)
		if got := errs.Variance(); math.Abs(got-bound) > 4*se {
			t.Errorf("p=%v: empirical variance %v, want 2k(1−p)/p² = %v ± %v", tc.p, got, bound, 4*se)
		}
		if se := errs.StdErr(); math.Abs(errs.Mean()) > 4*se {
			t.Errorf("p=%v: mean error %v exceeds 4 SE (%v)", tc.p, errs.Mean(), 4*se)
		}
	}
}

func TestExpectedSamples(t *testing.T) {
	t.Parallel()
	if got := ExpectedSamples(1000, 0.25); got != 250 {
		t.Errorf("ExpectedSamples = %v, want 250", got)
	}
}

// TestEstimateNodeAgainstBruteForce cross-checks the binary-search
// four-case implementation against an independent linear-scan oracle on
// random duplicate-heavy sample sets.
func TestEstimateNodeAgainstBruteForce(t *testing.T) {
	t.Parallel()
	oracle := func(set *sampling.SampleSet, q Query, p float64) float64 {
		var pred, succ *sampling.Sample
		for i := range set.Samples {
			s := set.Samples[i]
			if s.Value < q.L {
				cp := s
				pred = &cp
			}
			if s.Value > q.U && succ == nil {
				cp := s
				succ = &cp
			}
		}
		switch {
		case pred != nil && succ != nil:
			return float64(succ.Rank-pred.Rank+1) - 2/p
		case pred != nil:
			return float64(set.N-pred.Rank+1) - 1/p
		case succ != nil:
			return float64(succ.Rank) - 1/p
		default:
			return float64(set.N)
		}
	}
	f := func(raw []float64, lRaw, span, pRaw float64, seed int64) bool {
		if math.IsNaN(lRaw) || math.IsNaN(span) || math.IsInf(lRaw, 0) || math.IsInf(span, 0) {
			return true
		}
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			values = append(values, math.Round(math.Mod(v, 15)))
		}
		sort.Float64s(values)
		p := 0.05 + math.Mod(math.Abs(pRaw), 0.9)
		set, err := sampling.Draw(values, p, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		l := math.Round(math.Mod(lRaw, 20))
		u := l + math.Abs(math.Round(math.Mod(span, 10)))
		q := Query{L: l, U: u}
		rc := RankCounting{P: p}
		got, err := rc.EstimateNode(set, q)
		if err != nil {
			return false
		}
		want := oracle(set, q, p)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestGlobalEstimateIsSumOfNodes: Estimate must equal the sum of
// EstimateNode over the same sets.
func TestGlobalEstimateIsSumOfNodes(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.SulfurDioxide, dataset.GenerateConfig{Seed: 61, Records: 3000})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(7)
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.2
	root := stats.NewRNG(63)
	sets := make([]*sampling.SampleSet, len(parts))
	for i, part := range parts {
		cp := make([]float64, len(part))
		copy(cp, part)
		sort.Float64s(cp)
		set, err := sampling.Draw(cp, p, root.Child(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	rc := RankCounting{P: p}
	q := Query{L: 20, U: 60}
	global, err := rc.Estimate(sets, q)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, set := range sets {
		est, err := rc.EstimateNode(set, q)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	if math.Abs(global-sum) > 1e-9 {
		t.Errorf("Estimate %v != sum of nodes %v", global, sum)
	}
}
