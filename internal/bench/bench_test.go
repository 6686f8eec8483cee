package bench

import (
	"math"
	"strings"
	"testing"
)

// fastCfg runs at the full CityPulse size (the absolute error thresholds
// below depend on it) but with few trials to keep CI quick.
func fastCfg() Config {
	return Config{Seed: 1, Trials: 3, K: 10}
}

func TestResultTableAndCSV(t *testing.T) {
	t.Parallel()
	r := &Result{Name: "x", Title: "demo", XLabel: "p", Series: []string{"a", "b"}}
	if err := r.Add(0.5, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(0.6, 3); err == nil {
		t.Error("wrong row width should fail")
	}
	table := r.Table()
	if !strings.Contains(table, "demo") || !strings.Contains(table, "0.5") {
		t.Errorf("table missing content:\n%s", table)
	}
	csv := r.CSV()
	if !strings.HasPrefix(csv, "p,a,b\n") || !strings.Contains(csv, "0.5,1,2") {
		t.Errorf("csv malformed:\n%s", csv)
	}
	col, err := r.Column("b")
	if err != nil || len(col) != 1 || col[0] != 2 {
		t.Errorf("Column = %v, %v", col, err)
	}
	if _, err := r.Column("zz"); err == nil {
		t.Error("unknown column should fail")
	}
	if xs := r.Xs(); len(xs) != 1 || xs[0] != 0.5 {
		t.Errorf("Xs = %v", xs)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{Trials: -1, Records: 1000},
		{K: -2, Records: 1000},
		{K: 100, Records: 10},
		{Pollutant: 99, Records: 1000},
	}
	for i, c := range bad {
		if _, err := Fig2(c); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	res, err := Fig2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	errs, err := res.Column("max_rel_error")
	if err != nil {
		t.Fatal(err)
	}
	xs := res.Xs()
	// Error at the smallest p should exceed error at the largest p: the
	// headline monotone trend of Fig 2.
	if errs[0] <= errs[len(errs)-1] {
		t.Errorf("error should fall with p: first %v last %v", errs[0], errs[len(errs)-1])
	}
	// Beyond p≈0.15 the error should be small and stable (paper: ≤~3%
	// already above 5%; allow slack for the smaller test dataset).
	for i, p := range xs {
		if p >= 0.15 && errs[i] > 0.10 {
			t.Errorf("error %v at p=%v too large for the stable regime", errs[i], p)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	res, err := Fig3(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	util, err := res.Column("budget_utilization")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := res.Column("required_p")
	if err != nil {
		t.Fatal(err)
	}
	xs := res.Xs()
	var loMax, hiMax float64
	for i, v := range xs {
		if ps[i] <= 0 || ps[i] > 1 {
			t.Errorf("required p %v out of range at %v", ps[i], v)
		}
		// Utilization must never breach the contract wildly: the Thm 3.3
		// rate guarantees deviation ~αn·√(1−δ), comfortably under ~1.5
		// even at δ=0.08.
		if util[i] > 1.5 {
			t.Errorf("budget utilization %v at alpha=delta=%v breaches the contract", util[i], v)
		}
		if v < 0.3 && util[i] > loMax {
			loMax = util[i]
		}
		if v >= 0.3 && util[i] > hiMax {
			hiMax = util[i]
		}
	}
	// Paper shape: unstable/high below δ≈0.3, stable lower band above.
	if hiMax >= loMax {
		t.Errorf("utilization should settle for delta > 0.3: below=%v above=%v", loMax, hiMax)
	}
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	res, err := Fig4(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ps, err := res.Column("required_p")
	if err != nil {
		t.Fatal(err)
	}
	// Required sampling rate must strictly fall as data grows (~1/n).
	for i := 1; i < len(ps); i++ {
		if ps[i] >= ps[i-1] {
			t.Errorf("required p should decrease with data size: %v", ps)
			break
		}
	}
	// And the paper's expected sample count stays flat (it is
	// √(8k)·2/(α√(1−δ))).
	samples, err := res.Column("expected_samples")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(samples); i++ {
		if math.Abs(samples[i]-samples[0]) > 1.5 {
			t.Errorf("expected sample volume should be size-independent: %v", samples)
			break
		}
	}
	// The shipped volume, sized by the exact bound 2k(1−p)/p², is at most
	// half the paper's and flattens as p → 0: it rises toward
	// √(2k)/(α√(1−δ)), half the paper's volume, by ever smaller steps.
	shipped, err := res.Column("shipped_samples")
	if err != nil {
		t.Fatal(err)
	}
	for i := range shipped {
		if shipped[i] > samples[i]/2 {
			t.Errorf("row %d: shipped volume %v exceeds half the paper's %v", i, shipped[i], samples[i])
		}
	}
	for i := 2; i < len(shipped); i++ {
		step, prev := shipped[i]-shipped[i-1], shipped[i-1]-shipped[i-2]
		if !(step > 0 && step < prev) {
			t.Errorf("shipped volume should rise by shrinking steps as p falls: %v", shipped)
			break
		}
	}
}

func TestFig5Shape(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	cfg.Trials = 2
	res, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("fig5 should have 5 pollutant series, got %d", len(res.Series))
	}
	xs := res.Xs()
	for _, name := range res.Series {
		errs, err := res.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		// Error at eps=0.01 should dominate error at eps=8.
		if errs[0] <= errs[len(errs)-1] {
			t.Errorf("%s: error should fall with epsilon: %v", name, errs)
		}
		// Paper: at eps >= 0.1 relative error stays under ~8%.
		for i, eps := range xs {
			if eps >= 0.1 && errs[i] > 0.15 {
				t.Errorf("%s: error %v at eps=%v too large", name, errs[i], eps)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("fig6 should have 4 epsilon series, got %d", len(res.Series))
	}
	for _, name := range res.Series {
		errs, err := res.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		// Larger p ⇒ smaller sensitivity ⇒ less noise: last point better
		// than first.
		if errs[0] <= errs[len(errs)-1] {
			t.Errorf("%s: error should fall with p: first %v last %v", name, errs[0], errs[len(errs)-1])
		}
	}
	// At fixed p, a bigger budget must not hurt: compare series means.
	means := make([]float64, len(res.Series))
	for si, name := range res.Series {
		errs, _ := res.Column(name)
		sum := 0.0
		for _, e := range errs {
			sum += e
		}
		means[si] = sum / float64(len(errs))
	}
	for i := 1; i < len(means); i++ {
		if means[i] > means[i-1]*1.1 {
			t.Errorf("mean error should not grow with epsilon: %v", means)
		}
	}
}

func TestAblationEstimatorsShape(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	cfg.Trials = 2
	res, err := AblationEstimators(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := res.Column("rank_sd")
	if err != nil {
		t.Fatal(err)
	}
	basic, err := res.Column("basic_sd")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := res.Column("rank_bound_sd")
	if err != nil {
		t.Fatal(err)
	}
	// On the widest range, Basic must be far worse than Rank; Rank must
	// respect its analytic bound.
	last := len(res.Rows) - 1
	if basic[last] < 3*rank[last] {
		t.Errorf("BasicCounting sd %v should dwarf RankCounting %v on wide ranges", basic[last], rank[last])
	}
	for i := range rank {
		if rank[i] > bound[i]*1.15 {
			t.Errorf("rank sd %v exceeds bound %v at row %d", rank[i], bound[i], i)
		}
	}
}

func TestAblationOptimizerShape(t *testing.T) {
	t.Parallel()
	res, err := AblationOptimizer(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	eps, err := res.Column("epsilon_prime")
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) < 5 {
		t.Fatalf("landscape too sparse: %d rows", len(eps))
	}
	// The landscape should have an interior minimum: the minimum should
	// not sit at either extreme of the feasible grid.
	minIdx := 0
	for i, v := range eps {
		if v < eps[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(eps)-1 {
		t.Errorf("epsilon' minimum at grid edge (idx %d of %d): %v", minIdx, len(eps), eps)
	}
}

func TestAblationArbitrageShape(t *testing.T) {
	t.Parallel()
	res, err := AblationArbitrage(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	safe, err := res.Column("safe_ratio")
	if err != nil {
		t.Fatal(err)
	}
	unsafe, err := res.Column("unsafe_ratio")
	if err != nil {
		t.Fatal(err)
	}
	for i := range safe {
		if safe[i] < 1-1e-9 {
			t.Errorf("safe tariff beaten at row %d: ratio %v", i, safe[i])
		}
		if unsafe[i] >= 1 {
			t.Errorf("unsafe tariff should be beaten at row %d: ratio %v", i, unsafe[i])
		}
	}
}

func TestAblationTopologyShape(t *testing.T) {
	t.Parallel()
	res, err := AblationTopology(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	flat, err := res.Column("flat_bytes")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := res.Column("tree_bytes")
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if tree[i] < flat[i] {
			t.Errorf("tree bytes %v below flat %v at row %d", tree[i], flat[i], i)
		}
	}
}

func TestAblationWorkloads(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	cfg.Trials = 2
	res, err := AblationWorkloads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := res.Column("max_rel_error")
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("want 4 workloads, got %d", len(errs))
	}
	for i, e := range errs {
		// The narrow workload's floor is 2% of n, so its worst case is
		// ~√(8k)/p / (0.02n) ≈ 0.13 plus max-statistics slack.
		if e > 0.5 {
			t.Errorf("workload %d error %v implausibly large at p=0.2", i, e)
		}
	}
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	names := Experiments()
	if len(names) != 11 {
		t.Fatalf("registry has %d experiments", len(names))
	}
	if _, err := Run("fig4", fastCfg()); err != nil {
		t.Errorf("Run(fig4): %v", err)
	}
	if _, err := Run("nope", fastCfg()); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	a, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("same config should reproduce identical results")
	}
}

func TestAblationBaselineCrossover(t *testing.T) {
	t.Parallel()
	cfg := fastCfg()
	res, err := AblationBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samp, err := res.Column("sampling_mae")
	if err != nil {
		t.Fatal(err)
	}
	dy, err := res.Column("dyadic_mae")
	if err != nil {
		t.Fatal(err)
	}
	// Few queries: the adaptive sampling pipeline wins. Many queries: the
	// one-shot dyadic release wins. That crossover is the point.
	if samp[0] >= dy[0] {
		t.Errorf("at Q=1 sampling (%v) should beat dyadic (%v)", samp[0], dy[0])
	}
	last := len(samp) - 1
	if samp[last] <= dy[last] {
		t.Errorf("at Q=100 dyadic (%v) should beat sampling (%v)", dy[last], samp[last])
	}
	// Sampling error must grow with Q (budget splits); dyadic must not.
	if samp[last] <= samp[0] {
		t.Errorf("sampling error should grow with Q: %v", samp)
	}
	// Communication: sampling ships far fewer values than the dyadic
	// baseline's full centralization.
	comm, err := res.Column("sampling_comm_samples")
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.Column("dyadic_comm_records")
	if err != nil {
		t.Fatal(err)
	}
	if comm[0] >= full[0] {
		t.Errorf("sampling comm %v should be below full centralization %v", comm[0], full[0])
	}
}
