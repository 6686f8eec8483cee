package core

import (
	"privrange/internal/telemetry"
)

// Trace outcome tags released by the engine. All are compile-time
// constants, so no sample-derived string can reach a telemetry
// position (the privacyboundary analyzer checks those positions).
const (
	outcomeOK       = "ok"
	outcomeDegraded = "degraded"
	outcomeCacheHit = "cache_hit"
	outcomeInvalid  = "invalid"
	outcomeError    = "error"
)

// Metrics is the engine's telemetry: per-query latency and outcome
// counters, cache effectiveness, the batch estimation path taken, and
// the phase spans of sampled queries. Everything recorded is released
// or deployment-level state (latencies, outcome tags, coverage-derived
// flags) — never raw estimates, sample values or query ranges. A nil
// *Metrics records nothing, so instrumented paths need no conditionals.
type Metrics struct {
	queriesOK       *telemetry.Counter
	queriesDegraded *telemetry.Counter
	queriesCached   *telemetry.Counter
	queriesInvalid  *telemetry.Counter
	queriesError    *telemetry.Counter

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	// batchesIndex counts batches estimated over the columnar index
	// (path="index_tiled", a label value kept for existing scrapers) and
	// batchesSequential those over the sample sets (path="sampleset").
	batchesIndex      *telemetry.Counter
	batchesSequential *telemetry.Counter
	batchQueries      *telemetry.Counter

	latency      *telemetry.Histogram
	batchLatency *telemetry.Histogram

	// spans is the registry's distributed span buffer: engine traces
	// begun under a sampled context emit their phases there.
	spans *telemetry.SpanBuf
}

// NewMetrics registers the engine's metric catalog on r, tagging every
// series with the given static labels (typically the dataset name).
func NewMetrics(r *telemetry.Registry, labels ...telemetry.Label) *Metrics {
	outcome := func(tag string) []telemetry.Label {
		return append([]telemetry.Label{telemetry.L("outcome", tag)}, labels...)
	}
	const qHelp = "queries answered, by outcome"
	return &Metrics{
		queriesOK:       r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeOK)...),
		queriesDegraded: r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeDegraded)...),
		queriesCached:   r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeCacheHit)...),
		queriesInvalid:  r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeInvalid)...),
		queriesError:    r.Counter("privrange_core_queries_total", qHelp, outcome(outcomeError)...),

		cacheHits:   r.Counter("privrange_core_cache_hits_total", "answers served from the released-answer cache", labels...),
		cacheMisses: r.Counter("privrange_core_cache_misses_total", "cache lookups that fell through to the pipeline", labels...),

		batchesIndex:      r.Counter("privrange_core_batches_total", "batches answered, by estimation path", append([]telemetry.Label{telemetry.L("path", "index_tiled")}, labels...)...),
		batchesSequential: r.Counter("privrange_core_batches_total", "batches answered, by estimation path", append([]telemetry.Label{telemetry.L("path", "sampleset")}, labels...)...),
		batchQueries:      r.Counter("privrange_core_batch_queries_total", "queries released by multi-query AnswerBatchSerial calls", labels...),

		latency:      r.Histogram("privrange_core_query_seconds", "end-to-end Answer latency", telemetry.LatencyBuckets, labels...),
		batchLatency: r.Histogram("privrange_core_batch_seconds", "end-to-end latency of multi-query AnswerBatchSerial calls", telemetry.LatencyBuckets, labels...),

		spans: r.Spans(),
	}
}

// beginCtx starts a query trace joined to the caller's distributed
// trace context (the market's handler span); unsampled contexts
// degrade to a plain begin. When no metrics are attached the trace
// stays inert and every later Mark/End no-ops, so the uninstrumented
// hot path costs two branches.
func (m *Metrics) beginCtx(tr *telemetry.Trace, op string, parent telemetry.SpanContext) {
	if m == nil {
		return
	}
	tr.BeginCtx(op, parent, m.spans)
}

// noteCacheLookup records one answer-cache probe.
func (m *Metrics) noteCacheLookup(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}

// finishQuery closes one Answer trace: tags the outcome, observes the
// latency, bumps the outcome counter and emits the trace's spans.
func (m *Metrics) finishQuery(tr *telemetry.Trace, outcome string) {
	if m == nil {
		return
	}
	tr.End(outcome)
	m.latency.Observe(tr.Total.Seconds())
	m.counterFor(outcome).Inc()
	tr.Emit()
}

// finishBatch closes one multi-query AnswerBatchSerial trace. indexed
// reports which estimation path served the batch; n is the number of
// answers it released.
func (m *Metrics) finishBatch(tr *telemetry.Trace, outcome string, indexed bool, n int) {
	if m == nil {
		return
	}
	tr.End(outcome)
	m.batchLatency.Observe(tr.Total.Seconds())
	if outcome == outcomeOK || outcome == outcomeDegraded {
		if indexed {
			m.batchesIndex.Inc()
		} else {
			m.batchesSequential.Inc()
		}
		m.batchQueries.Add(uint64(n))
	}
	m.counterFor(outcome).Inc()
	tr.Emit()
}

func (m *Metrics) counterFor(outcome string) *telemetry.Counter {
	switch outcome {
	case outcomeOK:
		return m.queriesOK
	case outcomeDegraded:
		return m.queriesDegraded
	case outcomeCacheHit:
		return m.queriesCached
	case outcomeInvalid:
		return m.queriesInvalid
	default:
		return m.queriesError
	}
}
