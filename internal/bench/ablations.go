package bench

import (
	"fmt"
	"math"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/optimize"
	"privrange/internal/pricing"
	"privrange/internal/stats"
	"privrange/internal/workload"
)

// AblationEstimators compares the empirical error standard deviation of
// RankCounting against BasicCounting as the queried range widens — the
// §III-A claim that RankCounting's variance is width-independent while
// BasicCounting's grows with the count.
func AblationEstimators(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	f, err := newFixture(c)
	if err != nil {
		return nil, err
	}
	const p = 0.05
	rc := estimator.RankCounting{P: p}
	bc := estimator.BasicCounting{P: p}
	res := &Result{
		Name:   "ablation-estimators",
		Title:  "error std-dev vs range width: RankCounting vs BasicCounting (p=0.05)",
		XLabel: "width",
		Series: []string{"rank_sd", "basic_sd", "rank_bound_sd"},
	}
	root := stats.NewRNG(c.Seed + 2)
	trials := c.Trials * 20 // std-dev needs more draws than a mean
	for _, width := range []float64{10, 25, 50, 100, 200, 300} {
		q := estimator.Query{L: 0, U: width}
		truth, err := f.series.RangeCount(q.L, q.U)
		if err != nil {
			return nil, err
		}
		var rankErr, basicErr stats.Running
		for trial := 0; trial < trials; trial++ {
			sets, err := f.draw(p, root.Child(int64(trial)))
			if err != nil {
				return nil, err
			}
			re, err := rc.Estimate(sets, q)
			if err != nil {
				return nil, err
			}
			be, err := bc.Estimate(sets, q)
			if err != nil {
				return nil, err
			}
			rankErr.Add(re - float64(truth))
			basicErr.Add(be - float64(truth))
		}
		bound := rc.VarianceBound(f.k)
		if err := res.Add(width, rankErr.StdDev(), basicErr.StdDev(), math.Sqrt(bound)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationOptimizer maps the ε′ landscape over the internal α′ split for
// a fixed problem — showing the interior optimum the grid search finds.
func AblationOptimizer(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	prob := optimize.Problem{
		Accuracy: estimator.Accuracy{Alpha: 0.1, Delta: 0.6},
		P:        0.3,
		K:        c.K,
		N:        c.Records,
	}
	best, err := prob.Solve()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "ablation-optimizer",
		Title:  fmt.Sprintf("epsilon' landscape over alpha' (optimum alpha'=%.4f eps'=%.4f)", best.AlphaPrime, best.EpsilonPrime),
		XLabel: "alpha_prime",
		Series: []string{"epsilon", "epsilon_prime", "delta_prime"},
	}
	// The grid spans the feasible interval (α′_min, α) geometrically and
	// stops short of both ends, where ε′ diverges: the optimum sits a few
	// multiples of α′_min in, closer than a linear grid resolves.
	lo, hi := prob.MinAlphaPrime(), prob.Accuracy.Alpha
	const points = 30
	for i := 1; i <= points; i++ {
		ap := lo * math.Pow(hi/lo, float64(i)/(points+1))
		plan, err := prob.EpsilonForAlphaPrime(ap)
		if err != nil {
			continue // infeasible grid point: skip, the landscape has a feasible core
		}
		if err := res.Add(ap, plan.Epsilon, plan.EpsilonPrime, plan.DeltaPrime); err != nil {
			return nil, err
		}
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("bench: optimizer landscape empty")
	}
	return res, nil
}

// AblationArbitrage measures the adversary's best cost ratio (attack cost
// over direct price) across target accuracies for a safe and an unsafe
// tariff: ≥1 everywhere for the safe one, <1 for the unsafe one.
func AblationArbitrage(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	model := pricing.ChebyshevModel{N: c.Records}
	adv := pricing.Adversary{Model: model, MaxCopies: 128}
	menu := pricing.DefaultMenu()
	safe := pricing.BaseFeePlusInverse{Base: 1, C: 1e9}
	unsafe := pricing.UnsafeSteep{C: 1e16}
	res := &Result{
		Name:   "ablation-arbitrage",
		Title:  "best attack cost ratio vs target alpha (delta=0.8): safe vs unsafe tariff",
		XLabel: "target_alpha",
		Series: []string{"safe_ratio", "unsafe_ratio"},
	}
	for _, alpha := range []float64{0.03, 0.05, 0.08, 0.1, 0.15, 0.2} {
		target := estimator.Accuracy{Alpha: alpha, Delta: 0.8}
		safeRep, err := adv.Attack(safe, target, menu)
		if err != nil {
			return nil, err
		}
		unsafeRep, err := adv.Attack(unsafe, target, menu)
		if err != nil {
			return nil, err
		}
		sr, ur := ratioOr(safeRep), ratioOr(unsafeRep)
		if err := res.Add(alpha, sr, ur); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ratioOr(r pricing.AttackReport) float64 {
	if r.Best == nil {
		return 1 // no strategy found: direct purchase is the only option
	}
	return r.CostRatio
}

// AblationTopology compares communication bytes of flat vs tree routing
// as the node count grows, at a fixed target accuracy.
func AblationTopology(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	series, err := dataset.GenerateSeries(c.Pollutant, dataset.GenerateConfig{Seed: c.Seed, Records: c.Records})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "ablation-topology",
		Title:  "communication bytes vs node count: flat vs tree (fanout 4), p=0.1",
		XLabel: "nodes",
		Series: []string{"flat_bytes", "tree_bytes", "samples"},
	}
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		parts, err := series.Partition(k)
		if err != nil {
			return nil, err
		}
		run := func(topo iot.Topology) (iot.CostReport, error) {
			nw, err := iot.New(parts, iot.Config{Seed: c.Seed, Topology: topo, FreeHeartbeatSamples: -1})
			if err != nil {
				return iot.CostReport{}, err
			}
			if _, err := nw.EnsureRate(0.1); err != nil {
				return iot.CostReport{}, err
			}
			return nw.Cost(), nil
		}
		flat, err := run(iot.Flat)
		if err != nil {
			return nil, err
		}
		tree, err := run(iot.Tree)
		if err != nil {
			return nil, err
		}
		if err := res.Add(float64(k), float64(flat.Bytes), float64(tree.Bytes), float64(flat.SamplesShipped)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AblationWorkloads reports the sampling estimator's max relative error
// across qualitatively different query workloads at a fixed rate,
// demonstrating width-independence in practice.
func AblationWorkloads(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	f, err := newFixture(c)
	if err != nil {
		return nil, err
	}
	gens := []struct {
		name string
		gen  func() ([]estimator.Query, error)
	}{
		{name: "paper-grid", gen: func() ([]estimator.Query, error) { return workload.PaperGrid(), nil }},
		{name: "uniform", gen: func() ([]estimator.Query, error) {
			return workload.Uniform{Min: 0, Max: 300, Seed: c.Seed}.Queries(45)
		}},
		{name: "narrow", gen: func() ([]estimator.Query, error) {
			return workload.WidthStratified{Min: 0, Max: 300, Widths: []float64{5, 10}, Seed: c.Seed}.Queries(45)
		}},
		{name: "quantile", gen: func() ([]estimator.Query, error) {
			return workload.QuantileAnchored{Values: f.series.Values, Seed: c.Seed}.Queries(45)
		}},
	}
	res := &Result{
		Name:   "ablation-workloads",
		Title:  "max relative error by workload shape (p=0.2)",
		XLabel: "workload_idx",
		Series: []string{"max_rel_error"},
	}
	const p = 0.2
	root := stats.NewRNG(c.Seed + 3)
	for gi, g := range gens {
		queries, err := g.gen()
		if err != nil {
			return nil, err
		}
		// Keep populated queries only, mirroring the fixture's floor
		// (≥2% of n here: the narrow-width workload has no 10% bands).
		var kept []estimator.Query
		var truths []float64
		for _, q := range queries {
			truth, err := f.series.RangeCount(q.L, q.U)
			if err != nil {
				return nil, err
			}
			if float64(truth) >= 0.02*float64(f.n) {
				kept = append(kept, q)
				truths = append(truths, float64(truth))
			}
		}
		queries = kept
		if len(queries) == 0 {
			return nil, fmt.Errorf("bench: workload %q has no populated queries", g.name)
		}
		var acc stats.Running
		rc := estimator.RankCounting{P: p}
		for trial := 0; trial < c.Trials; trial++ {
			sets, err := f.draw(p, root.Child(int64(gi*1000+trial)))
			if err != nil {
				return nil, err
			}
			worst := 0.0
			for i, q := range queries {
				est, err := rc.Estimate(sets, q)
				if err != nil {
					return nil, err
				}
				if rel := stats.RelativeError(est, truths[i], 1); rel > worst {
					worst = rel
				}
			}
			acc.Add(worst)
		}
		if err := res.Add(float64(gi), acc.Mean()); err != nil {
			return nil, err
		}
	}
	// Rename rows via title note: workload order is paper-grid, uniform,
	// narrow, quantile.
	return res, nil
}
