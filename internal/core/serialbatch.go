package core

import (
	"fmt"

	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/optimize"
	"privrange/internal/telemetry"
)

// BatchOutcome is one query's result from AnswerBatchSerial: exactly one
// of Answer or Err is set, mirroring what answering that query alone
// would have returned.
type BatchOutcome struct {
	Answer *Answer
	Err    error
	// Charged reports whether this release spent Answer.Plan.EpsilonPrime
	// on the engine's accountant: false for answers served from the
	// answer cache (free post-processing) and on engines without an
	// accountant. It lives here rather than on Answer because cached
	// answers are shared copies.
	Charged bool
}

// AnswerBatchSerial serves range queries at one shared accuracy level
// with release semantics bit-identical to answering them one at a time
// in order: one noise draw from the engine RNG and one accountant charge
// per released query, outcomes independent per query (an exhausted
// budget fails the remaining queries exactly where a serial loop
// would), and the answer cache — when enabled — consulted and populated
// in query order, so an in-batch duplicate hits the store of its
// predecessor just as it would across serial calls.
//
// It is the engine's only release code: Answer is a batch of one,
// AnswerBatch adapts it to a loop of Answer calls, and the market
// settles every sale through it, whether a lone buy or a coalesced
// batch.
//
// sc is the caller's distributed-trace context (the market's buy or
// batch-sale span); when sampled, the release's phases emit as spans
// parented on it.
// Tracing never changes an answer. A single query is traced and counted
// as core.answer with the per-query latency series; two or more as
// core.answer_batch_serial with the batch series.
//
// Estimation for every non-cached query runs through the flat-index
// batch kernel in one call, so per-query cost collapses to a pair of
// binary searches per node plus the (cheap) per-query release step.
func (e *Engine) AnswerBatchSerial(queries []estimator.Query, acc estimator.Accuracy, sc telemetry.SpanContext) ([]BatchOutcome, error) {
	m := e.tele.Load()
	var tr telemetry.Trace
	if len(queries) == 1 {
		m.beginCtx(&tr, "core.answer", sc)
		out, outcome, _, _, err := e.answerBatchSerial(queries, acc, m, &tr)
		m.finishQuery(&tr, outcome)
		return out, err
	}
	m.beginCtx(&tr, "core.answer_batch_serial", sc)
	out, outcome, indexed, released, err := e.answerBatchSerial(queries, acc, m, &tr)
	m.finishBatch(&tr, outcome, indexed, released)
	return out, err
}

// AnswerBatch answers queries at one shared accuracy level and returns
// exactly what a loop of Answer calls would: the answers in order, up
// to the first query that fails, together with that query's error. A
// batch holding an invalid query is refused before anything is
// released. Each answer costs its own ε′ and one noise draw, as it
// would alone.
func (e *Engine) AnswerBatch(queries []estimator.Query, acc estimator.Accuracy) ([]*Answer, error) {
	for i, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	out, err := e.AnswerBatchSerial(queries, acc, telemetry.SpanContext{})
	if err != nil {
		return nil, err
	}
	answers := make([]*Answer, 0, len(out))
	for _, o := range out {
		if o.Err != nil {
			return answers, o.Err
		}
		answers = append(answers, o.Answer)
	}
	return answers, nil
}

// answerBatchSerial is the pipeline behind AnswerBatchSerial. The
// returned error covers only whole-call misuse (an empty batch);
// everything else lands in per-query outcomes so callers can settle
// each underlying sale independently.
func (e *Engine) answerBatchSerial(queries []estimator.Query, acc estimator.Accuracy, m *Metrics, tr *telemetry.Trace) (out []BatchOutcome, outcome string, indexed bool, released int, err error) {
	if len(queries) == 0 {
		return nil, outcomeInvalid, false, 0, fmt.Errorf("core: empty batch")
	}
	out = make([]BatchOutcome, len(queries))
	// valid[i] marks queries that passed validation; invalid ones fail
	// with the bare validation error, as when answered alone.
	valid := make([]bool, len(queries))
	anyValid := false
	for i, q := range queries {
		if verr := q.Validate(); verr != nil {
			out[i].Err = verr
			continue
		}
		valid[i] = true
		anyValid = true
	}
	if !anyValid {
		return out, outcomeInvalid, false, 0, nil
	}
	snap := e.readSnapshot()
	tr.Mark("sample_lookup")
	// Upfront cache probe: a query already answered under this exact
	// dataset state needs no plan, no estimate and no draw — the serial
	// path would have returned the cached copy before ever planning.
	// Each occurrence gets its own defensive copy, exactly like serial
	// lookups. Hit/miss metrics for misses are deferred to the release
	// loop, where an in-batch duplicate may still hit a predecessor's
	// store; upfront hits are counted here (their one and only lookup).
	cached := make([]*Answer, len(queries))
	needEstimate := false
	for i := range queries {
		if !valid[i] {
			continue
		}
		if e.cache != nil {
			if hit, ok := e.cache.lookup(queries[i], acc, snap); ok {
				cached[i] = hit
				m.noteCacheLookup(true)
				continue
			}
		}
		needEstimate = true
	}
	// failUncached fails every valid query the upfront probe did not
	// serve. Each of those probes was a cache miss; the release loop
	// records misses on success, so the early failure returns record
	// them here.
	failUncached := func(err error) {
		for i := range queries {
			if valid[i] && cached[i] == nil {
				out[i].Err = err
				if e.cache != nil {
					m.noteCacheLookup(false)
				}
			}
		}
	}
	var (
		plan optimize.Plan
		mech dp.Mechanism
		raws []float64
	)
	if needEstimate {
		p, planSnap, perr := e.planFor(acc, snap)
		tr.Mark("optimize")
		if perr != nil {
			// The plan depends only on (α, δ) and the deployment state,
			// so a planning failure is what every serial call would
			// have hit. Cached hits survive — their serial calls never
			// reached the planner.
			failUncached(perr)
			return out, outcomeError, false, 0, nil
		}
		if snapChanged(snap, planSnap) {
			// Auto-collection moved the dataset state: every cache
			// entry probed above is now stale, exactly as a serial
			// loop's later lookups would find after the first query
			// triggered collection. Re-estimate everything.
			for i := range cached {
				cached[i] = nil
			}
		}
		snap = planSnap
		plan = p
		indexed = snap.idx != nil
		// Estimate every valid non-cached query in one kernel pass.
		// Estimation is pure — no budget, no RNG — so estimating an
		// in-batch duplicate that later hits the cache wastes only
		// cycles, never correctness.
		var batch []estimator.Query
		slot := make([]int, 0, len(queries))
		for i := range queries {
			if valid[i] && cached[i] == nil {
				batch = append(batch, queries[i])
				slot = append(slot, i)
			}
		}
		raws = make([]float64, len(queries))
		dst := make([]float64, len(batch))
		eerr := rankEstimateBatch(snap, batch, dst)
		tr.Mark("estimate")
		if eerr != nil {
			failUncached(eerr)
			return out, outcomeError, indexed, 0, nil
		}
		for bi, i := range slot {
			raws[i] = dst[bi]
		}
		// The mechanism is built after the estimate mark, so perturb
		// times the whole release: mechanism, spends and draws.
		mech, err = dp.NewMechanism(p.Epsilon, p.Sensitivity)
		if err != nil {
			failUncached(err)
			return out, outcomeError, indexed, 0, nil
		}
	}
	// Release phase: one critical section for the whole batch, walking
	// queries in order. Per query this performs exactly the sequence of
	// a batch of one — cache lookup, Spend(ε′), one Perturb draw, cache
	// store — so for a fixed seed the values, the accountant's float
	// accumulation and the noise stream position are bit-identical to
	// releasing the queries one at a time. Holding releaseMu once
	// (instead of once per query) additionally makes the batch atomic
	// against other releases, which is what lets the market linearize a
	// coalesced sale against selling its buys one at a time.
	e.releaseMu.Lock()
	for i := range queries {
		if !valid[i] {
			continue
		}
		if cached[i] != nil {
			out[i].Answer = cached[i]
			continue
		}
		if e.cache != nil {
			if hit, ok := e.cache.lookup(queries[i], acc, snap); ok {
				// An earlier query in this batch released and stored
				// the same (range, accuracy): serve the copy for free,
				// as the serial loop would.
				m.noteCacheLookup(true)
				out[i].Answer = hit
				continue
			}
			m.noteCacheLookup(false)
		}
		if e.accountant != nil {
			if serr := e.accountant.Spend(plan.EpsilonPrime); serr != nil {
				out[i].Err = serr
				continue
			}
			out[i].Charged = true
		}
		ans := &Answer{
			Query:             queries[i],
			Accuracy:          acc,
			Value:             mech.Perturb(raws[i], e.rng),
			Plan:              plan,
			Rate:              snap.rate,
			Nodes:             snap.nodes,
			N:                 snap.n,
			Coverage:          snap.coverage,
			CollectionVersion: snap.version,
		}
		e.cache.store(ans, snap)
		out[i].Answer = ans
		released++
	}
	e.releaseMu.Unlock()
	tr.Mark("perturb")
	switch {
	case released == 0 && !needEstimate:
		return out, outcomeCacheHit, indexed, released, nil
	case released == 0:
		// Estimation ran but nothing was released (budget exhausted or
		// every query invalid before the spend).
		return out, outcomeError, indexed, released, nil
	case snap.coverage < 1:
		return out, outcomeDegraded, indexed, released, nil
	default:
		return out, outcomeOK, indexed, released, nil
	}
}

// snapChanged reports whether auto-collection replaced the dataset
// state between two snapshot captures (identity of the released
// provenance fields, the same validity key the answer cache uses).
func snapChanged(a, b snapshot) bool {
	return a.n != b.n || a.rate != b.rate || a.version != b.version || a.coverage != b.coverage
}
