package core

import (
	"math"
	"runtime"
	"testing"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

func TestAnswerBatch(t *testing.T) {
	t.Parallel()
	nw, series := buildNetwork(t, 8, 0, 81)
	acct, err := dp.NewAccountant(0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithSeed(11), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	queries := []estimator.Query{
		{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}, {L: 20, U: 180},
	}
	answers, err := eng.AnswerBatch(queries, acc)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(queries) {
		t.Fatalf("got %d answers", len(answers))
	}
	n := float64(series.Len())
	for i, ans := range answers {
		truth, err := series.RangeCount(queries[i].L, queries[i].U)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans.Value-float64(truth)) > 3*acc.Alpha*n {
			t.Errorf("query %d: %v wildly off truth %d", i, ans.Value, truth)
		}
		if ans.Plan != answers[0].Plan {
			t.Errorf("query %d should share the batch plan", i)
		}
	}
	// Budget: exactly m times the shared per-answer epsilon'.
	want := answers[0].Plan.EpsilonPrime * float64(len(queries))
	if got := acct.Spent(); math.Abs(got-want) > 1e-12 {
		t.Errorf("spent %v, want %v", got, want)
	}
	// Noise is independent per query: identical queries differ.
	dup, err := eng.AnswerBatch([]estimator.Query{{L: 0, U: 50}, {L: 0, U: 50}}, acc)
	if err != nil {
		t.Fatal(err)
	}
	if dup[0].Value == dup[1].Value {
		t.Error("batch answers must carry independent noise")
	}
}

func TestAnswerBatchValidation(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 6000, 83)
	eng, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	if _, err := eng.AnswerBatch(nil, acc); err == nil {
		t.Error("empty batch should fail")
	}
	if _, err := eng.AnswerBatch([]estimator.Query{{L: 5, U: 1}}, acc); err == nil {
		t.Error("bad query should fail")
	}
}

func TestAnswerBatchStopsAtExhaustedBudget(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 8000, 85)
	// Learn the per-answer cost first with an uncapped engine.
	probe, err := New(nw, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	one, err := probe.Answer(estimator.Query{L: 0, U: 100}, acc)
	if err != nil {
		t.Fatal(err)
	}
	// Cap affords two answers, request three: the batch releases and
	// charges the first two, exactly as a loop of Answer calls would,
	// and stops at the third with the accountant's error.
	acct, err := dp.NewAccountant(one.Plan.EpsilonPrime * 2.5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithSeed(2), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	queries := []estimator.Query{{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}}
	answers, err := eng.AnswerBatch(queries, acc)
	if err == nil {
		t.Fatal("over-budget batch should fail")
	}
	if len(answers) != 2 {
		t.Fatalf("got %d answers, want the 2 released before the cap", len(answers))
	}
	if got := acct.Queries(); got != 2 {
		t.Errorf("accountant charged %d releases, want 2", got)
	}
	if got, want := acct.Spent(), answers[0].Plan.EpsilonPrime+answers[1].Plan.EpsilonPrime; got != want {
		t.Errorf("spent %v, want the two answers' ε′ sum %v", got, want)
	}
}

func TestAnswerBatchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	// Not parallel: mutates GOMAXPROCS for the whole process.
	queries := []estimator.Query{
		{L: 0, U: 40}, {L: 10, U: 90}, {L: 20, U: 140}, {L: 30, U: 190},
		{L: 40, U: 240}, {L: 50, U: 290}, {L: 60, U: 340}, {L: 0, U: 340},
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	run := func(procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		nw, _ := buildNetwork(t, 8, 8000, 97)
		eng, err := New(nw, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		answers, err := eng.AnswerBatch(queries, acc)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]float64, len(answers))
		for i, ans := range answers {
			values[i] = ans.Value
		}
		return values
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("query %d: GOMAXPROCS=1 gives %v, GOMAXPROCS=8 gives %v — batch must be bit-identical",
				i, serial[i], parallel[i])
		}
	}
}
