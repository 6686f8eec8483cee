package main

import (
	"fmt"
	"math"
	"sort"

	"privrange/internal/estimator"
	"privrange/internal/optimize"
)

// accuracyLevel is the significance of the one-sided binomial test on
// each tier's hit rate: a run fails only when a hit count this low has
// probability below it under a true hit rate of exactly δ.
const accuracyLevel = 1e-4

// checker collects correctness failures for one pass. Every released
// value is scored against exact ground truth per accuracy tier, and
// every priced sale is compared with its quote.
type checker struct {
	problems []string
	hits     map[tier][2]int // tier -> {within αn, answers}
	plans    map[planKey]float64
	corrupt  bool
}

type planKey struct {
	t    tier
	p    float64
	k, n int
}

func newChecker(corrupt bool) *checker {
	return &checker{hits: map[tier][2]int{}, plans: map[planKey]float64{}, corrupt: corrupt}
}

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// answer scores one released value against the exact count over a
// dataset of n records. In corrupt mode the value is shifted by 10αn
// first, which must make the tier's binomial test fail.
func (c *checker) answer(t tier, n int, value float64, truth int) {
	if c.corrupt {
		value += 10 * t.Alpha * float64(n)
	}
	h := c.hits[t]
	if math.Abs(value-float64(truth)) <= t.Alpha*float64(n) {
		h[0]++
	}
	h[1]++
	c.hits[t] = h
}

// epsilon checks a released ε′ against the optimizer's plan for the
// answer's own provenance (rate p, k nodes, n records): the ε′ a quote
// at that sampling rate promises.
func (c *checker) epsilon(t tier, p float64, k, n int, got float64) {
	key := planKey{t, p, k, n}
	want, ok := c.plans[key]
	if !ok {
		prob := optimize.Problem{Accuracy: estimator.Accuracy{Alpha: t.Alpha, Delta: t.Delta}, P: p, K: k, N: n}
		plan, err := prob.SolveRefined()
		if err != nil {
			c.failf("plan for %+v at p=%v: %v", t, p, err)
			return
		}
		want = plan.EpsilonPrime
		c.plans[key] = want
	}
	if got != want {
		c.failf("tier %+v released ε′=%v, the plan at p=%v gives %v", t, got, p, want)
	}
}

// finish runs the per-tier accuracy test: Pr[Bin(m, δ) ≤ hits] must not
// fall below accuracyLevel.
func (c *checker) finish() {
	tiers := make([]tier, 0, len(c.hits))
	for t := range c.hits {
		tiers = append(tiers, t)
	}
	sort.Slice(tiers, func(i, j int) bool {
		return tiers[i].Alpha < tiers[j].Alpha || (tiers[i].Alpha == tiers[j].Alpha && tiers[i].Delta < tiers[j].Delta)
	})
	for _, t := range tiers {
		h := c.hits[t]
		if tail := binomLowerTail(h[0], h[1], t.Delta); tail < accuracyLevel {
			c.failf("tier (α=%v, δ=%v): %d of %d answers within αn; Pr[Bin(%d, %v) ≤ %d] = %.3g < %g",
				t.Alpha, t.Delta, h[0], h[1], h[1], t.Delta, h[0], tail, accuracyLevel)
		}
	}
}

// receipts verifies receipt ids are unique and gapless from 1.
func (c *checker) receipts(ids []int64) {
	s := append([]int64(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, id := range s {
		if id != int64(i+1) {
			c.failf("receipt ids not gapless: position %d holds id %d", i+1, id)
			return
		}
	}
}
