package core

import (
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/sampling"
)

// snapshot is one immutable, atomically consistent view of the source —
// everything a query needs once planning is done. Estimation runs
// lock-free against it: collections replace the underlying sample sets
// (and the columnar index) rather than mutating them, so a snapshot
// taken before a collection stays valid afterwards (it just describes
// the older state).
type snapshot struct {
	sets []*sampling.SampleSet
	// idx is the columnar sample index built over exactly sets, shared
	// immutably through the snapshot. It is nil when the source serves
	// none (for example when its build failed); estimation then falls
	// back to the SampleSet path, which is slower but always correct —
	// both paths are property-tested bit-identical.
	idx  *index.Index
	rate float64
	// nodes is k and n is |D| at capture time.
	nodes, n int
	// version is the source's monotonic sample-state version: it moves
	// whenever any node's stored sample is rewritten, even at unchanged
	// (n, rate) — e.g. a recovered node re-reporting a redrawn sample.
	version uint64
	// coverage is the fraction of records held by reachable nodes at
	// capture time — the degradation provenance released with answers.
	coverage float64
}

// snapshotLocked captures the source state. Callers must hold e.mu in
// either mode (read for queries, write during collection).
func (e *Engine) snapshotLocked() snapshot {
	var s snapshot
	s.sets, s.idx, s.rate, s.nodes, s.n, s.version, s.coverage = e.src.Snapshot()
	return s
}

// readSnapshot captures the source state under the engine's read lock.
func (e *Engine) readSnapshot() snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotLocked()
}

// rankEstimateBatch fills raws[i] with the un-noised RankCounting
// estimate for queries[i]: the flat-index batch kernel when the snapshot
// carries an index, and the per-query SampleSet loop otherwise. Both
// return bit-identical values, so callers cannot observe which one ran.
func rankEstimateBatch(snap snapshot, queries []estimator.Query, raws []float64) error {
	rc := estimator.RankCounting{P: snap.rate}
	if snap.idx != nil {
		return rc.EstimateIndexBatch(snap.idx, queries, raws)
	}
	for i, q := range queries {
		raw, err := rc.Estimate(snap.sets, q)
		if err != nil {
			return err
		}
		raws[i] = raw
	}
	return nil
}
