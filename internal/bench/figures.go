package bench

import (
	"math"
	"strconv"

	"privrange/internal/dataset"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/stats"
)

// Fig2 — "Querying accuracy affected by sampling probability p": maximum
// relative error of the noise-free sampling estimator as p sweeps the
// paper's range [0.0173, 0.4048]. Expected shape: high, oscillating error
// below p≈0.12; ≤ a few percent once ≥5–15% of data is sampled; flat
// beyond.
func Fig2(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	f, err := newFixture(c)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig2",
		Title:  "max relative error vs sampling probability (noise-free)",
		XLabel: "p",
		Series: []string{"max_rel_error"},
	}
	for _, p := range ps(0.0173, 0.4048, 24) {
		worst, err := f.meanMaxRelError(c, p, nil)
		if err != nil {
			return nil, err
		}
		if err := res.Add(p, worst); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig3 — "Querying accuracy affected by (α, δ)": α and δ co-vary from
// 0.08 to 0.8; for each pair the sampling rate is set by Theorem 3.3 and
// the estimator's worst-case deviation is measured *relative to the
// accuracy budget αn* (error-budget utilization). Expected shape, as in
// the paper: the curve oscillates for δ below ≈0.3 and settles into a
// stable, lower band beyond — at the Theorem 3.3 rate the deviation
// scales as αn·√(1−δ), so utilization falls and steadies as δ grows.
// (The paper's absolute 0.019 value is not consistent with its own
// Theorem 3.3 under a truth-relative metric; see EXPERIMENTS.md.)
func Fig3(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	f, err := newFixture(c)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fig3",
		Title:  "error-budget utilization vs accuracy parameters (p from Thm 3.3)",
		XLabel: "alpha=delta",
		Series: []string{"budget_utilization", "required_p"},
	}
	for _, v := range ps(0.08, 0.8, 19) {
		acc := estimator.Accuracy{Alpha: v, Delta: v}
		p, err := estimator.RequiredProbability(acc, f.k, f.n)
		if err != nil {
			return nil, err
		}
		worst, err := f.meanMaxBudgetError(c, p, v)
		if err != nil {
			return nil, err
		}
		if err := res.Add(v, worst, p); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig4 — "Sampling probability and data size relationship": with
// α = 0.055 and δ = 0.5 fixed, the Theorem 3.3 sampling rate is computed
// as the dataset grows from 10% to 100% of the CityPulse size. Expected
// shape: required p decays ~1/n — the bigger the data, the smaller the
// fraction that must travel. required_p and expected_samples reproduce
// the paper's formula, sized by its variance bound 8k/p², whose volume is
// exactly flat. shipped_p and shipped_samples are what the system
// collects, sized by the exact bound 2k(1−p)/p² (estimator.GlobalVariance):
// at most half the paper's volume, rising toward half of it as p → 0.
func Fig4(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	series, err := dataset.GenerateSeries(c.Pollutant, dataset.GenerateConfig{Seed: c.Seed, Records: c.Records})
	if err != nil {
		return nil, err
	}
	acc := estimator.Accuracy{Alpha: 0.055, Delta: 0.5}
	res := &Result{
		Name:   "fig4",
		Title:  "required sampling probability vs data size (alpha=0.055, delta=0.5)",
		XLabel: "data_fraction",
		Series: []string{"required_p", "expected_samples", "shipped_p", "shipped_samples"},
	}
	for frac := 0.1; frac <= 1.0001; frac += 0.1 {
		sub, err := series.Truncate(frac)
		if err != nil {
			return nil, err
		}
		n := sub.Len()
		// The paper's Theorem 3.3: p = √(2k)/(αn) · 2/√(1−δ).
		paper := math.Sqrt(2*float64(c.K)) / (acc.Alpha * float64(n)) * 2 / math.Sqrt(1-acc.Delta)
		shipped, err := estimator.RequiredProbability(acc, c.K, n)
		if err != nil {
			return nil, err
		}
		if err := res.Add(frac, paper, estimator.ExpectedSamples(n, paper),
			shipped, estimator.ExpectedSamples(n, shipped)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig5 — "Querying accuracy affected by ε with p = 0.4": the full private
// pipeline (sampling + Laplace with sensitivity 1/p) is run for each of
// the five pollutant series as ε sweeps [0.01, 8]. Expected shape: error
// falls as ε grows; at ε = 0.1 the relative error stays under ~8% for all
// five series.
func Fig5(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	const p = 0.4
	pollutants := dataset.Pollutants()
	series := make([]string, len(pollutants))
	fixtures := make([]*fixture, len(pollutants))
	for i, pol := range pollutants {
		series[i] = pol.String()
		pc := c
		pc.Pollutant = pol
		f, err := newFixture(pc)
		if err != nil {
			return nil, err
		}
		fixtures[i] = f
	}
	res := &Result{
		Name:   "fig5",
		Title:  "max relative error vs privacy budget epsilon (p=0.4, all 5 indexes)",
		XLabel: "epsilon",
		Series: series,
	}
	for _, eps := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 4, 8} {
		row := make([]float64, len(fixtures))
		for i, f := range fixtures {
			worst, err := f.meanMaxRelError(c, p, laplacePerturb(p, eps))
			if err != nil {
				return nil, err
			}
			row[i] = worst
		}
		if err := res.Add(eps, row...); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Fig6 — "Querying accuracy affected by p under different ε": the private
// pipeline's error as the sampling rate sweeps [0.0173, 0.25] for several
// privacy budgets. Expected shape: accuracy poor below p≈0.15 and
// improving with p — the estimator sensitivity (and so the noise) scales
// as 1/p.
func Fig6(c Config) (*Result, error) {
	c = c.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	f, err := newFixture(c)
	if err != nil {
		return nil, err
	}
	budgets := []float64{0.1, 0.5, 1, 2}
	names := make([]string, len(budgets))
	for i, eps := range budgets {
		names[i] = "eps=" + trimFloat(eps)
	}
	res := &Result{
		Name:   "fig6",
		Title:  "max relative error vs sampling probability under several epsilon",
		XLabel: "p",
		Series: names,
	}
	for _, p := range ps(0.0173, 0.25, 16) {
		row := make([]float64, len(budgets))
		for i, eps := range budgets {
			worst, err := f.meanMaxRelError(c, p, laplacePerturb(p, eps))
			if err != nil {
				return nil, err
			}
			row[i] = worst
		}
		if err := res.Add(p, row...); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// laplacePerturb builds the per-trial perturbation used by Figs 5 and 6:
// fresh Lap(Δγ̂/ε) noise per query with the paper's expected sensitivity
// Δγ̂ = 1/p.
func laplacePerturb(p, eps float64) func(rng *stats.RNG) func(float64) float64 {
	return func(rng *stats.RNG) func(float64) float64 {
		noise := dp.Laplace{Scale: (1 / p) / eps}
		return func(est float64) float64 {
			return est + noise.Sample(rng)
		}
	}
}

// ps returns count points evenly spaced over [lo, hi] inclusive.
func ps(lo, hi float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(count-1)
	}
	return out
}

// trimFloat formats a float compactly for series names.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
