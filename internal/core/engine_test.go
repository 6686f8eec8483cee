package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/iot"
)

func buildNetwork(t testing.TB, k, records int, seed int64) (*iot.Network, *dataset.Series) {
	t.Helper()
	series, err := dataset.GenerateSeries(dataset.ParticulateMatter, dataset.GenerateConfig{Seed: seed, Records: records})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return nw, series
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(nil); err == nil {
		t.Error("nil source should fail")
	}
	nw, _ := buildNetwork(t, 2, 100, 1)
	if _, err := New(nw, WithCollectionMargin(0.5)); err == nil {
		t.Error("margin < 1 should fail")
	}
}

func TestAnswerEndToEnd(t *testing.T) {
	t.Parallel()
	nw, series := buildNetwork(t, 10, dataset.CityPulseRecords, 2)
	eng, err := New(nw, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	q := estimator.Query{L: 40, U: 120}
	acc := estimator.Accuracy{Alpha: 0.05, Delta: 0.7}
	ans, err := eng.Answer(q, acc)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	n := series.Len()
	// The contract: |value − truth| ≤ αn with probability ≥ δ. A single
	// draw at 3x the bound failing would be a major bug.
	if math.Abs(ans.Value-float64(truth)) > 3*acc.Alpha*float64(n) {
		t.Errorf("answer %v wildly off truth %d (bound %v)", ans.Value, truth, acc.Alpha*float64(n))
	}
	if ans.Rate <= 0 || ans.Rate > 1 {
		t.Errorf("rate %v out of range", ans.Rate)
	}
	if ans.Nodes != 10 || ans.N != n {
		t.Errorf("metadata wrong: %+v", ans)
	}
	if ans.Plan.EpsilonPrime <= 0 || ans.Plan.EpsilonPrime > ans.Plan.Epsilon {
		t.Errorf("plan budgets inconsistent: %+v", ans.Plan)
	}
	if c := ans.Clamped(); c < 0 || c > float64(n) {
		t.Errorf("Clamped = %v outside [0, %d]", c, n)
	}
}

func TestAnswerAccuracyContractStatistically(t *testing.T) {
	t.Parallel()
	nw, series := buildNetwork(t, 8, 12000, 3)
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	q := estimator.Query{L: 30, U: 100}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(series.Len())
	// Collect once, then answer many times with fresh noise; each answer
	// must satisfy the (α, δ) contract, so the hit rate must be ≥ δ.
	eng, err := New(nw, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 400
	hits := 0
	for i := 0; i < trials; i++ {
		ans, err := eng.Answer(q, acc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans.Value-float64(truth)) <= acc.Alpha*n {
			hits++
		}
	}
	rate := float64(hits) / trials
	// Note: the sampling phase is fixed across trials here, so coverage
	// is conditional on one good sample; the engine oversamples (margin
	// 2), making the conditional rate comfortably above δ.
	if rate < acc.Delta {
		t.Errorf("coverage %v below delta %v", rate, acc.Delta)
	}
}

func TestAutoCollectRaisesRate(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 6, 10000, 5)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Rate() != 0 {
		t.Fatal("network should start uncollected")
	}
	if _, err := eng.Answer(estimator.Query{L: 0, U: 50}, estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if nw.Rate() <= 0 {
		t.Error("auto-collection should have raised the rate")
	}
}

func TestAutoCollectDisabled(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 6, 10000, 7)
	eng, err := New(nw, WithAutoCollect(false))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Answer(estimator.Query{L: 0, U: 50}, estimator.Accuracy{Alpha: 0.1, Delta: 0.5})
	if err == nil {
		t.Fatal("answer without samples and without auto-collect should fail")
	}
	if nw.Rate() != 0 {
		t.Error("rate must not change when auto-collect is off")
	}
}

func TestUnachievableAccuracy(t *testing.T) {
	t.Parallel()
	// 64 nodes over only 1000 records: α=0.01 needs |error| ≤ 10 records,
	// which takes a rate of ~0.93. Any accuracy is feasible at p = 1, so
	// node 0 is collected at 0.05 and then goes down: its stale sample
	// pins the guaranteed rate however high collection escalates.
	nw, _ := buildNetwork(t, 64, 1000, 9)
	eng, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.05); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Answer(estimator.Query{L: 0, U: 50}, estimator.Accuracy{Alpha: 0.01, Delta: 0.9})
	if !errors.Is(err, ErrUnachievable) {
		t.Fatalf("err = %v, want ErrUnachievable", err)
	}
}

// TestNonFinitePlanUnachievable: at α = 1e-100 the p = 1 plan's ε′
// overflows to +Inf, and at α = 1e-170 every plan field is NaN. Neither
// can be released or journaled, so both fail as unachievable before the
// accountant is charged.
func TestNonFinitePlanUnachievable(t *testing.T) {
	t.Parallel()
	for _, alpha := range []float64{1e-100, 1e-170} {
		nw, _ := buildNetwork(t, 16, 4000, 9)
		acct, err := dp.NewAccountant(0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(nw, WithAccountant(acct), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Answer(estimator.Query{L: 0, U: 50}, estimator.Accuracy{Alpha: alpha, Delta: 0.9})
		if !errors.Is(err, ErrUnachievable) {
			t.Fatalf("alpha %v: err = %v, want ErrUnachievable", alpha, err)
		}
		if acct.Spent() != 0 || acct.Queries() != 0 {
			t.Fatalf("alpha %v: accountant charged %v over %d queries", alpha, acct.Spent(), acct.Queries())
		}
		// Refused before collection: the rate does not ratchet to 1 and
		// no sample crosses the network.
		if r, c := nw.Rate(), nw.Cost(); r != 0 || c.SamplesShipped != 0 || c.Bytes != 0 {
			t.Fatalf("alpha %v: refusal collected: rate %v, %d samples, %d bytes shipped", alpha, r, c.SamplesShipped, c.Bytes)
		}
	}
}

func TestAccountantCharged(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 8000, 11)
	acct, err := dp.NewAccountant(0) // uncapped
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithAccountant(acct), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	ans, err := eng.Answer(estimator.Query{L: 20, U: 80}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got := acct.Spent(); math.Abs(got-ans.Plan.EpsilonPrime) > 1e-12 {
		t.Errorf("accountant spent %v, want %v", got, ans.Plan.EpsilonPrime)
	}
	if acct.Queries() != 1 {
		t.Errorf("queries = %d, want 1", acct.Queries())
	}
}

func TestAccountantCapBlocksAnswer(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 8000, 13)
	acct, err := dp.NewAccountant(1e-9) // essentially no budget
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer(estimator.Query{L: 20, U: 80}, estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("exhausted budget should block the answer")
	}
}

func TestEstimateOnly(t *testing.T) {
	t.Parallel()
	nw, series := buildNetwork(t, 8, 10000, 15)
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	q := estimator.Query{L: 40, U: 100}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	est, err := eng.EstimateOnly(q)
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(estimator.RankCounting{P: 0.3}.VarianceBound(8))
	if math.Abs(est-float64(truth)) > 6*sigma {
		t.Errorf("estimate %v too far from %d", est, truth)
	}
}

func TestEstimateOnlyWithoutSamples(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 2, 100, 17)
	eng, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EstimateOnly(estimator.Query{L: 0, U: 1}); err == nil {
		t.Error("estimate before any collection should fail")
	}
}

func TestPlanQuoteDoesNotCollectOrSpend(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 8000, 19)
	acct, err := dp.NewAccountant(0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	// No samples yet: quoting must fail without collecting.
	if _, err := eng.Plan(estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("plan quote without samples should fail")
	}
	if nw.Rate() != 0 {
		t.Error("quote must not trigger collection")
	}
	if _, err := nw.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(estimator.Accuracy{Alpha: 0.1, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.EpsilonPrime <= 0 {
		t.Errorf("quoted plan invalid: %+v", plan)
	}
	if acct.Spent() != 0 {
		t.Error("quote must not spend budget")
	}
}

func TestAnswerRejectsBadInputs(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 8000, 21)
	eng, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer(estimator.Query{L: 5, U: 1}, estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := eng.Answer(estimator.Query{L: 0, U: 1}, estimator.Accuracy{Alpha: 0, Delta: 0.5}); err == nil {
		t.Error("bad accuracy should fail")
	}
}

func TestDeterministicAnswers(t *testing.T) {
	t.Parallel()
	build := func() float64 {
		nw, _ := buildNetwork(t, 4, 4000, 23)
		eng, err := New(nw, WithSeed(99))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Answer(estimator.Query{L: 10, U: 90}, estimator.Accuracy{Alpha: 0.1, Delta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return ans.Value
	}
	if build() != build() {
		t.Error("same seeds end-to-end should reproduce the same answer")
	}
}

// seqSource wraps a Network but records EnsureRate calls, proving the
// engine escalates rates monotonically.
type seqSource struct {
	*iot.Network
	rates []float64
}

func (s *seqSource) EnsureRate(p float64) (*iot.CollectionReport, error) {
	s.rates = append(s.rates, p)
	return s.Network.EnsureRate(p)
}

func TestAutoCollectEscalatesMonotonically(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 6, 4000, 25)
	src := &seqSource{Network: nw}
	eng, err := New(src, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Answer(estimator.Query{L: 0, U: 100}, estimator.Accuracy{Alpha: 0.06, Delta: 0.6}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(src.rates); i++ {
		if src.rates[i] <= src.rates[i-1] {
			t.Errorf("rates not escalating: %v", src.rates)
		}
	}
}

var _ Source = (*iot.Network)(nil)

func TestCollectionMarginControlsOversampling(t *testing.T) {
	t.Parallel()
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	rateWithMargin := func(margin float64) float64 {
		nw, _ := buildNetwork(t, 6, 12000, 91)
		eng, err := New(nw, WithSeed(1), WithCollectionMargin(margin))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Answer(estimator.Query{L: 0, U: 100}, acc); err != nil {
			t.Fatal(err)
		}
		return nw.Rate()
	}
	low := rateWithMargin(1.5)
	high := rateWithMargin(4)
	if high <= low {
		t.Errorf("larger margin should collect at a higher rate: %v vs %v", low, high)
	}
}

func TestEngineConcurrentAnswers(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 6, 10000, 93)
	eng, err := New(nw, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := estimator.Query{L: float64(10 * g), U: float64(10*g + 100)}
				if _, err := eng.Answer(q, acc); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
