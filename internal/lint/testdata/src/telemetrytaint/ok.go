package telemetrytaint

import (
	"time"

	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/sampling"
	"privrange/internal/stats"
	"privrange/internal/telemetry"
)

// snapshotLike mirrors the engine's internal snapshot: a struct that
// holds raw sample sets NEXT TO clean operational fields. Publishing
// the clean fields must stay legal — that is the analyzer's
// field-sensitivity requirement.
type snapshotLike struct {
	sets     []*sampling.SampleSet
	rate     float64
	coverage float64
	nodes    int
}

// publishOperationalState records coverage and rate gauges from a
// struct that also carries the forbidden sets; the sibling fields are
// clean.
func publishOperationalState(r *telemetry.Registry, snap snapshotLike) {
	r.Gauge("coverage", "reachable fraction").Set(snap.coverage)
	r.Gauge("rate", "sampling rate").Set(snap.rate)
	r.Gauge("nodes", "deployment size").Set(float64(snap.nodes))
}

// publishCoverageRange records each snapshot's coverage through a
// range and a local copy: still a clean sibling of the sets.
func publishCoverageRange(g *telemetry.Gauge, snaps []snapshotLike) {
	for _, snap := range snaps {
		c := snap.coverage
		g.Set(c)
	}
}

// publishReleasedValue records the perturbed (released) estimate — the
// sanctioned path: taint does not survive the dp mechanism.
func publishReleasedValue(h *telemetry.Histogram, rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query, m dp.Mechanism, rng *stats.RNG) error {
	raw, err := rc.Estimate(sets, q)
	if err != nil {
		return err
	}
	h.Observe(m.Perturb(raw, rng))
	return nil
}

// publishAnswerProvenance records released-answer metadata: an Answer
// is post-noise output, free to observe.
func publishAnswerProvenance(g *telemetry.Gauge, ans *core.Answer) {
	g.Set(ans.Coverage)
}

// publishCounts records plain operational counts and constant tags.
func publishCounts(r *telemetry.Registry, tr *telemetry.Trace, el *telemetry.EventLog, d time.Duration) {
	c := r.Counter("rounds", "rounds driven", telemetry.L("outcome", "ok"))
	c.Inc()
	c.Add(3)
	r.Histogram("latency", "seconds", telemetry.LatencyBuckets).ObserveDuration(d)
	tr.Begin("core.answer")
	tr.Mark("estimate")
	tr.End("ok")
	el.Append("breaker_open", 4, 9, "")
}

// annotateOperational tags spans with constant keys and operational
// values — the sanctioned annotation path.
func annotateOperational(tr *telemetry.Trace, rec *telemetry.SpanRecord, snap snapshotLike, dataset string) {
	tr.Annotate("dataset", dataset)
	tr.Annotate("shard", "3")
	rec.Annot("nodes", string(rune(snap.nodes)))
}
