package iot

import (
	"fmt"
	"sort"

	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/wire"
)

// BaseStation aggregates sample reports from all nodes and exposes the
// merged per-node sample sets the broker's estimator consumes, plus the
// columnar sample index the broker's flat hot path queries.
type BaseStation struct {
	sets map[int]*sampling.SampleSet
	seen map[int]bool
	// version counts accepted reports: every write to any node's stored
	// sample bumps it. Consumers (the broker's answer cache) use it to
	// detect that sample state moved even when |D| and the rate did not —
	// e.g. a recovered node re-reporting a redrawn sample.
	version uint64
	// idx is the columnar index over sets, built by RebuildIndex at
	// version idxVersion (nil when that build failed); indexed records
	// that a build ran at all. It is immutable once built; any accepted
	// report makes it stale (idxVersion falls behind version) until the
	// next rebuild, so a stale index is never served.
	idx        *index.Index
	idxVersion uint64
	indexed    bool
}

// NewBaseStation returns an empty base station.
func NewBaseStation() *BaseStation {
	return &BaseStation{
		sets: make(map[int]*sampling.SampleSet),
		seen: make(map[int]bool),
	}
}

// HandleReport folds one sample report into the per-node state: Replace
// reports overwrite, incremental reports merge by rank. It takes
// ownership of rep.Samples: a replace report's slice becomes the stored
// set, so the caller must not touch it afterwards (wire.Decode hands
// every report a slice of its own).
func (b *BaseStation) HandleReport(rep *wire.SampleReport) error {
	if rep == nil {
		return fmt.Errorf("iot: nil sample report")
	}
	b.seen[rep.NodeID] = true
	existing, ok := b.sets[rep.NodeID]
	if rep.Replace || !ok {
		set := &sampling.SampleSet{N: rep.N, Samples: rep.Samples}
		if err := set.Validate(); err != nil {
			return fmt.Errorf("iot: node %d replace report: %w", rep.NodeID, err)
		}
		b.sets[rep.NodeID] = set
		b.version++
		return nil
	}
	if existing.N != rep.N {
		return fmt.Errorf("iot: node %d incremental report with n=%d over stored n=%d (node must replace)",
			rep.NodeID, rep.N, existing.N)
	}
	// Nodes never reship a rank within a generation; Validate rejects
	// the merge if one does.
	merged := sampling.MergeByRank(existing.Samples, rep.Samples)
	set := &sampling.SampleSet{N: rep.N, Samples: merged}
	if err := set.Validate(); err != nil {
		return fmt.Errorf("iot: node %d merged report: %w", rep.NodeID, err)
	}
	b.sets[rep.NodeID] = set
	b.version++
	return nil
}

// Version returns the monotonic sample-state version: how many reports
// have been accepted. Any change to the stored samples changes it.
func (b *BaseStation) Version() uint64 { return b.version }

// RebuildIndex (re)builds the columnar sample index when it is stale —
// i.e. when any report was accepted since the last build. The network
// calls it on the first snapshot read after the sample state moved, so
// a state that nobody reads through a snapshot (a sharded cluster's
// members) is never indexed, and every query after the first amortizes
// the build. A build failure (only possible on sizes/ranks outside the
// index's int32 columns) leaves the index unset until the next report;
// queries then fall back to the SampleSet path, trading speed for
// correctness, and the error is returned for the caller to surface.
func (b *BaseStation) RebuildIndex() error {
	if !b.IndexStale() {
		return nil
	}
	ix, err := index.Build(b.SampleSets())
	b.idx, b.idxVersion, b.indexed = ix, b.version, true
	if err != nil {
		b.idx = nil
		return fmt.Errorf("iot: rebuilding sample index: %w", err)
	}
	return nil
}

// IndexStale reports whether the sample state moved since the last index
// build, or no build ran yet: RebuildIndex would build.
func (b *BaseStation) IndexStale() bool {
	return !b.indexed || b.idxVersion != b.version
}

// Index returns the columnar sample index and whether it is fresh —
// built from exactly the current sample state. Callers must treat a
// stale or missing index (ok == false) as absent and use the SampleSet
// path: serving a stale index would answer queries against samples the
// version says are gone.
func (b *BaseStation) Index() (*index.Index, bool) {
	if b.idx == nil || b.IndexStale() {
		return nil, false
	}
	return b.idx, true
}

// HandleHeartbeat records node liveness (and dataset size updates).
func (b *BaseStation) HandleHeartbeat(hb *wire.Heartbeat) error {
	if hb == nil {
		return fmt.Errorf("iot: nil heartbeat")
	}
	b.seen[hb.NodeID] = true
	if len(hb.Piggyback) > 0 {
		return b.HandleReport(&wire.SampleReport{NodeID: hb.NodeID, N: hb.N, Samples: hb.Piggyback})
	}
	return nil
}

// SampleSets returns the stored sets ordered by node id. The slice is
// freshly allocated; the sets are shared (callers must not mutate them).
func (b *BaseStation) SampleSets() []*sampling.SampleSet {
	ids := make([]int, 0, len(b.sets))
	for id := range b.sets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*sampling.SampleSet, 0, len(ids))
	for _, id := range ids {
		out = append(out, b.sets[id])
	}
	return out
}

// NodeIDs returns the ids of all nodes with stored samples, ascending —
// parallel to SampleSets, so a sharded cluster can place each set at
// its global position.
func (b *BaseStation) NodeIDs() []int {
	ids := make([]int, 0, len(b.sets))
	for id := range b.sets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TotalN returns Σ n_i over all reporting nodes — the |D| the accuracy
// guarantees are relative to.
func (b *BaseStation) TotalN() int {
	total := 0
	for _, set := range b.sets {
		total += set.N
	}
	return total
}

// Nodes returns how many distinct nodes have reported.
func (b *BaseStation) Nodes() int { return len(b.sets) }

// SampleCount returns the total number of stored samples across nodes.
func (b *BaseStation) SampleCount() int {
	total := 0
	for _, set := range b.sets {
		total += len(set.Samples)
	}
	return total
}
