// Package core implements the paper's primary contribution end to end:
// the broker-side engine that turns a customer's (α, δ)-range-counting
// request into an ε′-differentially-private answer with the smallest
// feasible ε′.
//
// The pipeline per query (§III):
//
//  1. Check feasibility of (α, δ) against the sampling rate the base
//     station currently holds; optionally drive the IoT network to
//     collect more samples (the paper's re-collection path).
//  2. Solve optimization problem (3) for the internal split (α′, δ′) and
//     the minimal Laplace budget ε; privacy amplification by sampling
//     turns that into the effective guarantee ε′ = ln(1 + p(e^ε − 1)).
//  3. Compute the (α′, δ′) RankCounting estimate from the per-node
//     sample sets.
//  4. Release estimate + Lap(Δγ̂/ε), which is an ε′-DP (α, δ)-range
//     counting, and charge the cumulative privacy accountant.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/iot"
	"privrange/internal/optimize"
	"privrange/internal/sampling"
	"privrange/internal/stats"
	"privrange/internal/telemetry"
)

// Source is the engine's view of a sampled IoT deployment. The
// single-broker iot.Network and the sharded shard.Cluster both
// implement it; the engine cannot tell them apart.
type Source interface {
	// EnsureRate drives collection until the base station holds a
	// Bernoulli(p) sample from every reachable node, returning a report
	// of what the round achieved. The error is non-nil exactly when some
	// attempted node failed (it wraps iot.ErrPartialRound); the report is
	// valid either way and describes the partial progress made.
	EnsureRate(p float64) (*iot.CollectionReport, error)
	// Snapshot returns one atomically consistent view of (sample sets,
	// columnar index, rate, node count, record count, sample-state
	// version, coverage). The returned sets and index must be immutable
	// — later collections must replace them, not mutate them — and
	// version must increase whenever any node's stored sample is
	// rewritten, even at unchanged n and rate. idx may be nil when the
	// source holds no index built from exactly the current sample state;
	// the engine then estimates over the sets directly. Coverage is the
	// fraction of records held by currently reachable nodes; it moves
	// when nodes go down or recover even if nothing else changed.
	Snapshot() (sets []*sampling.SampleSet, idx *index.Index, rate float64, nodes, n int, version uint64, coverage float64)
}

// ErrUnachievable reports that the requested accuracy cannot be met at
// the highest rate collection reached: the engine asked for every record,
// but down or failing nodes kept the guaranteed rate below what the
// accuracy needs. It is also returned, before any collection, for an
// accuracy whose plan is unusable even at p = 1 (its ε′ overflows,
// although the sampling variance bound is then 0).
var ErrUnachievable = errors.New("core: accuracy unachievable at the sampling rate collection reached")

// DegradationPolicy selects how the engine reacts when a collection
// round completes only partially (some nodes failed after exhausting
// their retries).
type DegradationPolicy int

const (
	// Strict fails the query on any partial collection round: every
	// attempted node must be reached before an answer is released. This
	// is the default and matches the engine's historical behavior.
	Strict DegradationPolicy = iota
	// BestEffort tolerates partial rounds: the engine re-solves
	// optimization problem (3) at whatever rate the degraded network
	// actually guarantees and answers if that is feasible. The released
	// Answer carries Coverage and CollectionVersion provenance so the
	// consumer can see exactly what they paid for.
	BestEffort
)

// WithDegradationPolicy selects strict or best-effort answering over
// partially-failed collection rounds. The default is Strict.
func WithDegradationPolicy(p DegradationPolicy) Option {
	return func(e *Engine) { e.policy = p }
}

// Engine is the broker-side private query engine. It is safe for
// concurrent use and built read-mostly: query paths (Answer,
// AnswerBatch, Plan, EstimateOnly, cache hits) take a read lock just
// long enough to capture an immutable snapshot of the source's
// (sample sets, rate, |D|) and then estimate lock-free — independent
// queries proceed in parallel. Sample collection (the auto-collect path
// raising the rate) is the only writer. Release-side mutable state — the
// noise RNG, the accountant charge and the answer cache update — sits
// behind a separate short mutex, so for a fixed seed and call sequence
// answers remain bit-for-bit reproducible.
type Engine struct {
	// mu orders queries against collection: readers snapshot the source,
	// the plan→EnsureRate path is the only writer.
	mu  sync.RWMutex
	src Source
	// releaseMu guards the noise RNG and the accountant/cache updates
	// that accompany every release.
	releaseMu  sync.Mutex
	rng        *stats.RNG
	accountant *dp.Accountant
	auto       bool
	margin     float64
	policy     DegradationPolicy
	cache      *answerCache
	// tele holds the optional query-engine metrics. It is an atomic
	// pointer so telemetry can be attached after construction (the ops
	// endpoint is opt-in and may be enabled late) without racing the
	// lock-free query paths; nil means record nothing.
	tele atomic.Pointer[Metrics]
}

// SetTelemetry attaches engine metrics (nil detaches). Safe to call
// concurrently with queries.
func (e *Engine) SetTelemetry(m *Metrics) { e.tele.Store(m) }

// WithTelemetry attaches engine metrics at construction.
func WithTelemetry(m *Metrics) Option {
	return func(e *Engine) { e.tele.Store(m) }
}

// Option configures an Engine.
type Option func(*Engine)

// WithSeed fixes the noise RNG seed for reproducible experiments. The
// default seed is 1.
func WithSeed(seed int64) Option {
	return func(e *Engine) { e.rng = stats.NewRNG(seed) }
}

// WithAccountant attaches a shared privacy-budget accountant; every
// answered query spends its effective ε′ there.
func WithAccountant(a *dp.Accountant) Option {
	return func(e *Engine) { e.accountant = a }
}

// Accountant returns the engine's privacy accountant (nil when none is
// attached). The market's durability layer uses it to snapshot and
// restore Σε′ across broker restarts; it is set once at construction,
// so reading it here is race-free.
func (e *Engine) Accountant() *dp.Accountant { return e.accountant }

// CachesAnswers reports whether the engine re-serves released answers
// (WithAnswerCache). The market uses it to order a release's spend
// record ahead of every receipt that re-serves it; like the accountant
// it is fixed at construction.
func (e *Engine) CachesAnswers() bool { return e.cache != nil }

// WithAutoCollect controls whether the engine may command the network to
// raise its sampling rate when a request is infeasible at the current
// rate. Enabled by default.
func WithAutoCollect(enabled bool) Option {
	return func(e *Engine) { e.auto = enabled }
}

// WithAnswerCache enables released-answer caching: a repeated request
// (same range, same accuracy, unchanged dataset state) is served the
// previously released value at zero additional privacy cost —
// re-publishing a published value is free post-processing under
// differential privacy. Side effect on the market: buying the same
// answer m times yields m identical copies, so averaging them gains
// nothing; the caching broker is structurally immune to the Example 4.1
// attack. Disabled by default (the paper's broker draws fresh noise per
// sale).
func WithAnswerCache(enabled bool) Option {
	return func(e *Engine) {
		if enabled {
			e.cache = newAnswerCache()
		} else {
			e.cache = nil
		}
	}
}

// WithCollectionMargin sets the factor by which auto-collection oversamples
// relative to the Theorem 3.3 feasibility threshold, leaving headroom for
// the noise phase. The default is 2; values below are rejected at New.
func WithCollectionMargin(m float64) Option {
	return func(e *Engine) { e.margin = m }
}

// New builds an engine over a sampled source.
func New(src Source, opts ...Option) (*Engine, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil source")
	}
	e := &Engine{
		src:    src,
		rng:    stats.NewRNG(1),
		auto:   true,
		margin: 2,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.margin < 1 {
		return nil, fmt.Errorf("core: collection margin %v must be >= 1", e.margin)
	}
	if e.policy != Strict && e.policy != BestEffort {
		return nil, fmt.Errorf("core: unknown degradation policy %d", e.policy)
	}
	return e, nil
}

// Answer is a released private range-counting result plus its full
// provenance (everything a customer is allowed to see).
type Answer struct {
	// Query and Accuracy echo the request.
	Query    estimator.Query
	Accuracy estimator.Accuracy
	// Value is the released ε′-DP estimate. It can be negative or exceed
	// n — unbiasedness forbids truncation; use Clamped for display.
	Value float64
	// Plan is the optimizer's solution: (α′, δ′, ε, ε′) and the noise
	// scale actually used.
	Plan optimize.Plan
	// Rate is the sampling rate the answer was computed at.
	Rate float64
	// Nodes and N describe the deployment (public metadata).
	Nodes, N int
	// Coverage is the fraction of records held by nodes that were
	// reachable when the answer's snapshot was taken: 1 means every
	// node's samples were refreshable, lower values mean the answer
	// leaned on stale samples from down or failed nodes (best-effort
	// degradation provenance).
	Coverage float64
	// CollectionVersion is the source's sample-state version the answer
	// was computed against; consumers can compare it across purchases to
	// tell whether the underlying samples moved.
	CollectionVersion uint64
}

// Clamped returns the answer value truncated to the physically possible
// range [0, N]. Clamping is safe post-processing under DP but breaks
// unbiasedness, so it is opt-in.
func (a *Answer) Clamped() float64 {
	return math.Max(0, math.Min(float64(a.N), a.Value))
}

// Answer serves one (α, δ)-range-counting request (Definition 2.2). It
// is the serial release of a batch of one: AnswerBatchSerial runs the
// pipeline and, for a single query, records it under the core.answer
// trace and the per-query latency series.
func (e *Engine) Answer(q estimator.Query, acc estimator.Accuracy) (*Answer, error) {
	out, err := e.AnswerBatchSerial([]estimator.Query{q}, acc, telemetry.SpanContext{})
	if err != nil {
		return nil, err
	}
	return out[0].Answer, out[0].Err
}

// EstimateOnly returns the broker-internal (α′, δ′) sampling estimate
// without noise. It never leaves the broker: experiments use it to
// separate sampling error from perturbation error (Figs 2–4). It does not
// spend privacy budget because nothing is released.
func (e *Engine) EstimateOnly(q estimator.Query) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	snap := e.readSnapshot()
	if snap.rate <= 0 {
		return 0, fmt.Errorf("core: no samples collected yet")
	}
	var raw [1]float64
	if err := rankEstimateBatch(snap, []estimator.Query{q}, raw[:]); err != nil {
		return 0, err
	}
	return raw[0], nil
}

// solveAt solves optimization problem (3) against a snapshot. Pure: it
// touches no engine state, so read-path callers need no lock.
func solveAt(acc estimator.Accuracy, snap snapshot) (optimize.Plan, error) {
	prob := optimize.Problem{
		Accuracy: acc,
		P:        snap.rate,
		K:        snap.nodes,
		N:        snap.n,
	}
	if prob.P <= 0 {
		return optimize.Plan{}, optimize.ErrInfeasible
	}
	plan, err := prob.SolveRefined()
	if err != nil {
		return optimize.Plan{}, err
	}
	// A plan whose charge overflows, or whose noise vanishes, can be
	// neither released nor journaled: treat it as infeasible, so at
	// p = 1 planFor reports the accuracy unachievable.
	if math.IsInf(plan.EpsilonPrime, 0) || math.IsNaN(plan.EpsilonPrime) || !(plan.NoiseScale > 0) {
		return optimize.Plan{}, optimize.ErrInfeasible
	}
	return plan, nil
}

// planFor solves problem (3) for the request, optionally raising the
// sampling rate until it becomes feasible. It returns the plan together
// with the snapshot it was solved against: the feasible fast path reuses
// the caller's snapshot read-locked, while the re-collection path takes
// the writer lock, re-checks (another writer may have collected while we
// waited), oversamples past the feasibility threshold and doubles until
// feasible or saturated at p = 1. A request infeasible even at p = 1 is
// refused before any collection.
func (e *Engine) planFor(acc estimator.Accuracy, snap snapshot) (optimize.Plan, snapshot, error) {
	if err := acc.Validate(); err != nil {
		return optimize.Plan{}, snap, err
	}
	plan, err := solveAt(acc, snap)
	if err == nil {
		return plan, snap, nil
	}
	if !errors.Is(err, optimize.ErrInfeasible) || !e.auto {
		return optimize.Plan{}, snap, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	snap = e.snapshotLocked()
	if plan, err = solveAt(acc, snap); err == nil {
		return plan, snap, nil
	}
	if !errors.Is(err, optimize.ErrInfeasible) {
		return optimize.Plan{}, snap, err
	}
	// ε falls as p rises, so a plan infeasible at p = 1 is infeasible at
	// every rate: refuse it before collecting anything.
	full := snap
	full.rate = 1
	if _, ferr := solveAt(acc, full); errors.Is(ferr, optimize.ErrInfeasible) {
		return optimize.Plan{}, snap, fmt.Errorf("%w: %w", ErrUnachievable, ferr)
	}
	need, rerr := estimator.RequiredProbability(acc, snap.nodes, snap.n)
	if rerr != nil {
		return optimize.Plan{}, snap, rerr
	}
	target := math.Min(1, need*e.margin)
	if target <= snap.rate {
		target = math.Min(1, snap.rate*2)
	}
	for {
		if _, err := e.src.EnsureRate(target); err != nil && !e.tolerable(err) {
			return optimize.Plan{}, snap, err
		}
		snap = e.snapshotLocked()
		plan, err := solveAt(acc, snap)
		if err == nil {
			return plan, snap, nil
		}
		if !errors.Is(err, optimize.ErrInfeasible) {
			return optimize.Plan{}, snap, err
		}
		if target >= 1 {
			return optimize.Plan{}, snap, fmt.Errorf("%w: %w", ErrUnachievable, err)
		}
		target = math.Min(1, target*2)
	}
}

// tolerable reports whether a collection error may be absorbed instead
// of failing the query: only partial rounds under the best-effort
// policy qualify — the engine then re-solves at whatever rate the
// degraded network actually achieved. Transport-independent errors
// (validation, unknown failures) always propagate.
func (e *Engine) tolerable(err error) bool {
	return e.policy == BestEffort && errors.Is(err, iot.ErrPartialRound)
}

// Plan exposes the optimizer outcome for a hypothetical request without
// answering it (used for quoting prices before purchase). It never
// changes the sampling rate and spends no budget.
func (e *Engine) Plan(acc estimator.Accuracy) (optimize.Plan, error) {
	if err := acc.Validate(); err != nil {
		return optimize.Plan{}, err
	}
	return solveAt(acc, e.readSnapshot())
}
