package core

import (
	"math"
	"strings"
	"testing"

	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/telemetry"
)

// serialOracle answers the same queries one at a time on a fresh engine
// built over an identically-seeded network, returning the per-query
// outcomes a serial loop produces. The accountant is returned so spends
// can be compared bit-for-bit.
func serialOracle(t *testing.T, k int, netSeed, engSeed int64, budget float64, cache bool, queries []estimator.Query, acc estimator.Accuracy) ([]BatchOutcome, *dp.Accountant) {
	t.Helper()
	nw, _ := buildNetwork(t, k, 0, netSeed)
	acct, err := dp.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithSeed(engSeed), WithAccountant(acct)}
	if cache {
		opts = append(opts, WithAnswerCache(true))
	}
	eng, err := New(nw, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]BatchOutcome, len(queries))
	for i, q := range queries {
		out[i].Answer, out[i].Err = eng.Answer(q, acc)
	}
	return out, acct
}

// assertOutcomesEqual demands bit-for-bit equality between the batch
// outcomes and the serial oracle: same success/failure split, identical
// released values (==, not within-tolerance), identical plans and
// provenance, and matching error text.
func assertOutcomesEqual(t *testing.T, got, want []BatchOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("outcome count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("query %d: err %v, oracle err %v", i, g.Err, w.Err)
		}
		if g.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Errorf("query %d: err %q, oracle %q", i, g.Err, w.Err)
			}
			continue
		}
		if g.Answer.Value != w.Answer.Value {
			t.Errorf("query %d: value %v, oracle %v (must be bit-identical)", i, g.Answer.Value, w.Answer.Value)
		}
		if g.Answer.Plan != w.Answer.Plan {
			t.Errorf("query %d: plan %+v, oracle %+v", i, g.Answer.Plan, w.Answer.Plan)
		}
		if g.Answer.Rate != w.Answer.Rate || g.Answer.N != w.Answer.N ||
			g.Answer.Coverage != w.Answer.Coverage ||
			g.Answer.CollectionVersion != w.Answer.CollectionVersion {
			t.Errorf("query %d: provenance mismatch: %+v vs %+v", i, g.Answer, w.Answer)
		}
	}
}

func TestAnswerBatchSerialMatchesSerialOracle(t *testing.T) {
	t.Parallel()
	const (
		k       = 8
		netSeed = 81
		engSeed = 11
	)
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	queries := []estimator.Query{
		{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}, {L: 20, U: 180}, {L: 0, U: 500},
	}

	nw, _ := buildNetwork(t, k, 0, netSeed)
	acct, err := dp.NewAccountant(0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithSeed(engSeed), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	want, oracleAcct := serialOracle(t, k, netSeed, engSeed, 0, false, queries, acc)
	assertOutcomesEqual(t, got, want)
	if acct.Spent() != oracleAcct.Spent() {
		t.Errorf("spent %v, oracle %v (accountant accumulation must be bit-identical)", acct.Spent(), oracleAcct.Spent())
	}
	// One charge per released query, no more and no fewer.
	wantSpend := got[0].Answer.Plan.EpsilonPrime * float64(len(queries))
	if math.Abs(acct.Spent()-wantSpend) > 1e-12 {
		t.Errorf("spent %v, want m·ε′ = %v", acct.Spent(), wantSpend)
	}
	// Noise is per-query: a later call over the same ranges continues
	// the stream, never replays it.
	again, err := eng.AnswerBatchSerial(queries[:2], acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Answer.Value == got[0].Answer.Value {
		t.Error("re-answering must draw fresh noise, not replay the stream")
	}
}

func TestAnswerBatchSerialBudgetExhaustionMidBatch(t *testing.T) {
	t.Parallel()
	const (
		k       = 4
		netSeed = 7
		engSeed = 23
	)
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	queries := []estimator.Query{
		{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}, {L: 20, U: 180},
	}
	// Size the cap so roughly half the batch fits: probe ε′ uncapped,
	// then cap at 2.5 charges — queries 0 and 1 succeed, 2 and 3 hit
	// the exhausted accountant exactly where the serial loop would.
	probe, _ := serialOracle(t, k, netSeed, engSeed, 0, false, queries[:1], acc)
	budget := probe[0].Answer.Plan.EpsilonPrime * 2.5

	nw, _ := buildNetwork(t, k, 0, netSeed)
	acct, err := dp.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithSeed(engSeed), WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	want, oracleAcct := serialOracle(t, k, netSeed, engSeed, budget, false, queries, acc)
	assertOutcomesEqual(t, got, want)
	if acct.Spent() != oracleAcct.Spent() {
		t.Errorf("spent %v, oracle %v", acct.Spent(), oracleAcct.Spent())
	}
	if got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("first two queries should fit the budget: %v, %v", got[0].Err, got[1].Err)
	}
	for i := 2; i < 4; i++ {
		if got[i].Err == nil || !strings.Contains(got[i].Err.Error(), "budget exhausted") {
			t.Errorf("query %d: want budget exhaustion, got %v", i, got[i].Err)
		}
	}
}

func TestAnswerBatchSerialCacheDuplicates(t *testing.T) {
	t.Parallel()
	const (
		k       = 4
		netSeed = 31
		engSeed = 5
	)
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}
	// Query 2 duplicates query 0 in-batch; the serial loop's second
	// occurrence hits the cache entry its first occurrence stored.
	queries := []estimator.Query{
		{L: 0, U: 50}, {L: 50, U: 100}, {L: 0, U: 50}, {L: 0, U: 50},
	}
	nw, _ := buildNetwork(t, k, 0, netSeed)
	acct, err := dp.NewAccountant(0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(nw, WithSeed(engSeed), WithAccountant(acct), WithAnswerCache(true))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	want, oracleAcct := serialOracle(t, k, netSeed, engSeed, 0, true, queries, acc)
	assertOutcomesEqual(t, got, want)
	if got[2].Answer.Value != got[0].Answer.Value || got[3].Answer.Value != got[0].Answer.Value {
		t.Error("in-batch duplicates must serve the first occurrence's released value")
	}
	if got[2].Answer == got[0].Answer {
		t.Error("cache hits must be defensive copies, not shared pointers")
	}
	if acct.Spent() != oracleAcct.Spent() {
		t.Errorf("spent %v, oracle %v", acct.Spent(), oracleAcct.Spent())
	}
	// Two distinct ranges → exactly two charges; duplicates are free.
	wantSpend := got[0].Answer.Plan.EpsilonPrime * 2
	if math.Abs(acct.Spent()-wantSpend) > 1e-12 {
		t.Errorf("spent %v, want 2·ε′ = %v (duplicates must not re-spend)", acct.Spent(), wantSpend)
	}
	// Charged marks exactly the releases that spent ε′.
	for i, want := range []bool{true, true, false, false} {
		if got[i].Charged != want {
			t.Errorf("query %d: Charged %v, want %v", i, got[i].Charged, want)
		}
	}

	// A whole-batch replay is all cache hits: zero additional spend,
	// values identical to the first release.
	before := acct.Spent()
	replay, err := eng.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range replay {
		if replay[i].Err != nil {
			t.Fatalf("replay query %d: %v", i, replay[i].Err)
		}
		if replay[i].Answer.Value != got[i].Answer.Value {
			t.Errorf("replay query %d: %v, want cached %v", i, replay[i].Answer.Value, got[i].Answer.Value)
		}
		if replay[i].Charged {
			t.Errorf("replay query %d: a cache hit reported a charge", i)
		}
	}
	if acct.Spent() != before {
		t.Error("replaying a fully-cached batch must spend nothing")
	}
}

func TestAnswerBatchSerialInvalidAndEmpty(t *testing.T) {
	t.Parallel()
	nw, _ := buildNetwork(t, 4, 0, 13)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.08, Delta: 0.6}

	if _, err := eng.AnswerBatchSerial(nil, acc, telemetry.SpanContext{}); err == nil {
		t.Error("empty batch must error")
	}

	queries := []estimator.Query{
		{L: 0, U: 50}, {L: 100, U: 10}, {L: math.NaN(), U: 1}, {L: 50, U: 100},
	}
	got, err := eng.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Err == nil || !strings.Contains(got[1].Err.Error(), "L > U") {
		t.Errorf("query 1: want validation error, got %v", got[1].Err)
	}
	if got[2].Err == nil || !strings.Contains(got[2].Err.Error(), "NaN") {
		t.Errorf("query 2: want NaN validation error, got %v", got[2].Err)
	}
	if got[0].Err != nil || got[3].Err != nil {
		t.Errorf("valid queries must still release: %v, %v", got[0].Err, got[3].Err)
	}
	if got[0].Answer == nil || got[3].Answer == nil {
		t.Fatal("valid queries returned no answer")
	}
	for i := range got {
		if got[i].Charged {
			t.Errorf("query %d: an engine without an accountant reported a charge", i)
		}
	}

	// An all-invalid batch releases nothing and charges nothing.
	bad, err := eng.AnswerBatchSerial([]estimator.Query{{L: 9, U: 1}}, acc, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if bad[0].Err == nil {
		t.Error("invalid-only batch must fail the query")
	}
}
