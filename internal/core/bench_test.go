package core

import (
	"testing"

	"privrange/internal/estimator"
	"privrange/internal/telemetry"
)

// BenchmarkAnswerBatchParallel measures the broker's batch hot path
// over a 64-node deployment answering 64 queries per batch: AnswerBatch
// rides the serial release path, so the batch solves one shared plan,
// estimates every query in one node-order pass over the columnar index,
// then releases in order with one noise draw and one ε′ charge per
// query. The name predates the removal of the estimator's worker pool
// and is kept so recorded results stay comparable.
// Compare against BenchmarkAnswerBatchSequentialQueries (the same
// releases answered one Answer call at a time, each solving its own
// plan) for what batching saves.
func BenchmarkAnswerBatchParallel(b *testing.B) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 64)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(2 * i), U: float64(2*i + 120)}
	}
	// Warm up: collect once so the loop measures answering, not sampling.
	if _, err := eng.AnswerBatch(queries[:1], acc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnswerBatch(queries, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerBatchSequentialQueries answers the same 64 queries as
// individual Answer calls — the pre-batching, fully serialized baseline.
func BenchmarkAnswerBatchSequentialQueries(b *testing.B) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 64)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(2 * i), U: float64(2*i + 120)}
	}
	if _, err := eng.Answer(queries[0], acc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := eng.Answer(q, acc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAnswerBatchParallelTelemetry is BenchmarkAnswerBatchParallel
// with a live metrics registry attached — the number to compare against
// the plain benchmark when judging instrumentation cost. The telemetry
// contract is ≤3% ns/op overhead and +0 allocs/op: traces live on the
// stack, and every counter and histogram update is a lock-free atomic.
func BenchmarkAnswerBatchParallelTelemetry(b *testing.B) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTelemetry(NewMetrics(telemetry.NewRegistry()))
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 64)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(2 * i), U: float64(2*i + 120)}
	}
	if _, err := eng.AnswerBatch(queries[:1], acc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnswerBatch(queries, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerBatchSerialTelemetry is the coalesced serving path's
// engine call (one shared plan, queries answered in order on one
// goroutine) with a live registry and tracing off — the baseline the
// traced benchmark below is compared against.
func BenchmarkAnswerBatchSerialTelemetry(b *testing.B) {
	benchAnswerBatchSerial(b, 0)
}

// BenchmarkAnswerBatchSerialTraced is the same path with distributed
// tracing sampled 1-in-64 — the production sampling rate. Tracing's
// end-to-end cost is perfbench's measured telemetry.trace_overhead_pct;
// this pair shows where it comes from: unsampled calls cost one atomic
// counter increment and a handful of nil checks, and sampled spans go
// to the lock-free ring without allocating.
func BenchmarkAnswerBatchSerialTraced(b *testing.B) {
	benchAnswerBatchSerial(b, 64)
}

func benchAnswerBatchSerial(b *testing.B, sampleN int) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(NewMetrics(reg))
	spans := reg.Spans()
	sampler := telemetry.NewSampler(sampleN)
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 64)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(2 * i), U: float64(2*i + 120)}
	}
	if _, err := eng.AnswerBatchSerial(queries[:1], acc, telemetry.SpanContext{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sc telemetry.SpanContext
		if sampler.Sample() {
			sc = spans.NewRoot()
		}
		if _, err := eng.AnswerBatchSerial(queries, acc, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTraced is BenchmarkAnswerTelemetry with 1-in-64
// distributed tracing — the single-buy hot path under production
// sampling, called the way the market settles a lone sale: a batch of
// one under the sale's trace context.
func BenchmarkAnswerTraced(b *testing.B) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(NewMetrics(reg))
	spans := reg.Spans()
	sampler := telemetry.NewSampler(64)
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	q := estimator.Query{L: 10, U: 130}
	one := []estimator.Query{q}
	if _, err := eng.Answer(q, acc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sc telemetry.SpanContext
		if sampler.Sample() {
			sc = spans.NewRoot()
		}
		if _, err := eng.AnswerBatchSerial(one, acc, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerTelemetry measures the single-query path with metrics
// live: one full trace (sample_lookup, optimize, estimate, perturb),
// latency histogram observation and outcome counter per op.
func BenchmarkAnswerTelemetry(b *testing.B) {
	nw, _ := buildNetwork(b, 64, 262144, 3)
	eng, err := New(nw, WithSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	eng.SetTelemetry(NewMetrics(telemetry.NewRegistry()))
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	q := estimator.Query{L: 10, U: 130}
	if _, err := eng.Answer(q, acc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Answer(q, acc); err != nil {
			b.Fatal(err)
		}
	}
}
