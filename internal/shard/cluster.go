package shard

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"privrange/internal/index"
	"privrange/internal/iot"
	"privrange/internal/sampling"
	"privrange/internal/telemetry"
)

// snapshot is one atomically consistent cross-shard view in the exact
// representation the single-broker Source contract uses. Slices and the
// index are immutable — recomposition replaces them — so a snapshot
// stays valid while collections proceed underneath it.
type snapshot struct {
	// sets is the composed per-node sample set list, ascending global
	// node id — element-for-element what a single-broker base station
	// would serve.
	sets []*sampling.SampleSet
	// idx is the columnar index built over exactly sets, nil when the
	// build failed.
	idx      *index.Index
	rate     float64
	nodes, n int
	version  uint64
	coverage float64
}

// Cluster partitions an IoT fleet across S broker shards by consistent
// hashing on node id. Each shard is a self-contained iot.Network —
// its own collection loop and base station — built with the shard's
// global node ids so per-node sampling streams match the single-broker
// network exactly. Collection rounds fan out across the shards
// concurrently; after every round the cluster merges the shards'
// sample sets into global node order and builds one columnar index
// over them, so estimation sees exactly the state a single broker
// would hold.
//
// Locking mirrors iot.Network: mutations (EnsureRate, IngestRound,
// SetDown) serialize behind the cluster writer lock and recompose the
// cached snapshot before releasing it; reads share the read lock and
// return the immutable composed state. Reaching into a member network
// directly (Shard) bypasses the cluster lock and its recomposition, so
// the composed snapshot goes stale.
type Cluster struct {
	mu   sync.RWMutex
	ring *Ring
	// nets[s] is shard s's network, nil when the ring assigned it no
	// nodes (possible for small fleets or unlucky hashes).
	nets []*iot.Network
	// owner[g] is the shard owning global node g; ids[s] lists shard
	// s's global node ids ascending (the shard network's join order).
	owner []int
	ids   [][]int
	k     int
	// snap is the composed snapshot, rebuilt after every mutation.
	snap snapshot
	// clock counts cluster-level rounds for composed reports.
	clock uint64
}

// New builds a cluster of the given shard count over the node
// partitions: parts[g] is held by global node g, owned by the shard
// the ring assigns. The iot.Config seeds and fault profiles apply to
// every shard keyed by global node id, so a sharded deployment
// reproduces the single-broker network's node-level behavior exactly.
func New(parts [][]float64, shards int, cfg iot.Config) (*Cluster, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: need at least one node partition")
	}
	if cfg.NodeIDs != nil {
		return nil, fmt.Errorf("shard: cluster assigns node ids itself; Config.NodeIDs must be nil")
	}
	ring, err := NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		ring:  ring,
		nets:  make([]*iot.Network, shards),
		owner: make([]int, len(parts)),
		ids:   make([][]int, shards),
		k:     len(parts),
	}
	shardParts := make([][][]float64, shards)
	for g := range parts {
		s := ring.Owner(g)
		c.owner[g] = s
		c.ids[s] = append(c.ids[s], g) // ascending: g iterates in order
		shardParts[s] = append(shardParts[s], parts[g])
	}
	for s := 0; s < shards; s++ {
		if len(shardParts[s]) == 0 {
			continue
		}
		shardCfg := cfg
		shardCfg.NodeIDs = c.ids[s]
		nw, err := iot.New(shardParts[s], shardCfg)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", s, err)
		}
		c.nets[s] = nw
	}
	c.recomposeLocked()
	return c, nil
}

// NumShards returns S.
func (c *Cluster) NumShards() int { return c.ring.Shards() }

// Owner returns the shard owning the given global node id.
func (c *Cluster) Owner(nodeID int) (int, error) {
	if nodeID < 0 || nodeID >= c.k {
		return 0, fmt.Errorf("shard: no node %d", nodeID)
	}
	return c.owner[nodeID], nil
}

// Shard exposes shard s's network for tests and diagnostics.
//
// Footgun: mutating a member network directly bypasses the cluster
// lock and leaves the composed snapshot stale. Drive all mutations
// through the cluster.
func (c *Cluster) Shard(s int) *iot.Network { return c.nets[s] }

// recomposeLocked rebuilds the composed snapshot from per-shard state.
// Callers hold c.mu for writing. Every slice and the index are freshly
// built so previously returned snapshots stay immutable.
func (c *Cluster) recomposeLocked() {
	states := make([]iot.State, len(c.nets))
	for s, nw := range c.nets {
		if nw != nil {
			states[s] = nw.State()
		}
	}
	var snap snapshot
	reported := 0
	for _, st := range states {
		reported += len(st.Sets)
	}
	snap.sets = make([]*sampling.SampleSet, 0, reported)
	// K-way merge of the per-shard (id, set) lists by ascending global
	// id. Shard id lists are already ascending and disjoint.
	heads := make([]int, len(states))
	for len(snap.sets) < reported {
		best, bestID := -1, 0
		for s, st := range states {
			if heads[s] >= len(st.IDs) {
				continue
			}
			if id := st.IDs[heads[s]]; best < 0 || id < bestID {
				best, bestID = s, id
			}
		}
		snap.sets = append(snap.sets, states[best].Sets[heads[best]])
		heads[best]++
	}
	// A build failure (the base stations validated every set, so only
	// sizes outside the index's int32 columns) leaves idx nil; the
	// engine then estimates over the sets.
	if ix, err := index.Build(snap.sets); err == nil {
		snap.idx = ix
	}
	// Scalars compose in the same units the single broker computes them:
	// the rate is the min over the same per-node rates, coverage the
	// same integer ratio, so both match bit-for-bit.
	rate, haveRate := 0.0, false
	live, total := 0, 0
	for s, st := range states {
		if c.nets[s] == nil {
			continue
		}
		if !haveRate || st.Rate < rate {
			rate, haveRate = st.Rate, true
		}
		snap.nodes += st.Nodes
		snap.n += st.N
		snap.version += st.Version
		live += st.LiveRecords
		total += st.TotalRecords
	}
	snap.rate = rate
	if total == 0 {
		snap.coverage = 1
	} else {
		snap.coverage = float64(live) / float64(total)
	}
	c.snap = snap
}

// scatter runs fn(s) for every shard with a network, fanning out across
// a bounded worker pool (one goroutine per shard, shards are coarse
// units). It returns the first error by shard order so error selection
// is deterministic.
func (c *Cluster) scatter(fn func(s int) error) error {
	active := 0
	for _, nw := range c.nets {
		if nw != nil {
			active++
		}
	}
	errs := make([]error, len(c.nets))
	if active <= 1 {
		for s, nw := range c.nets {
			if nw != nil {
				errs[s] = fn(s)
			}
		}
	} else {
		var wg sync.WaitGroup
		for s, nw := range c.nets {
			if nw == nil {
				continue
			}
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				errs[s] = fn(s)
			}(s)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EnsureRate drives one collection round toward a Bernoulli(p) sample
// on every shard concurrently and composes the per-shard reports into
// one cluster-wide CollectionReport with global node ids. Exactly like
// the single-broker round, the returned error wraps iot.ErrPartialRound
// when any attempted node failed and the report is valid either way.
func (c *Cluster) EnsureRate(p float64) (*iot.CollectionReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	reports := make([]*iot.CollectionReport, len(c.nets))
	err := c.scatter(func(s int) error {
		rep, err := c.nets[s].EnsureRate(p)
		reports[s] = rep
		if rep == nil {
			return err // hard failure (validation), not a partial round
		}
		return nil
	})
	c.recomposeLocked()
	if err != nil {
		return nil, err
	}
	rep := &iot.CollectionReport{
		Round:  c.clock,
		Target: p,
		Failed: make(map[int]error),
	}
	for _, sr := range reports {
		if sr == nil {
			continue
		}
		if sr.Effective > rep.Effective {
			rep.Effective = sr.Effective
		}
		rep.Refreshed = append(rep.Refreshed, sr.Refreshed...)
		rep.Satisfied = append(rep.Satisfied, sr.Satisfied...)
		rep.Skipped = append(rep.Skipped, sr.Skipped...)
		rep.CircuitOpen = append(rep.CircuitOpen, sr.CircuitOpen...)
		for id, ferr := range sr.Failed {
			rep.Failed[id] = ferr
		}
	}
	sort.Ints(rep.Refreshed)
	sort.Ints(rep.Satisfied)
	sort.Ints(rep.Skipped)
	sort.Ints(rep.CircuitOpen)
	rep.Achieved = c.snap.rate
	rep.Coverage = c.snap.coverage
	rep.Version = c.snap.version
	return rep, rep.Err()
}

// IngestRound appends one round of readings across the whole fleet and
// refreshes every shard at its current rate: perNode[g] goes to global
// node g. Like the single-broker round, a partially failed refresh
// returns an error wrapping iot.ErrPartialRound while the surviving
// shards' state is still refreshed.
func (c *Cluster) IngestRound(perNode [][]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(perNode) != c.k {
		return fmt.Errorf("shard: round has %d node batches, cluster has %d nodes", len(perNode), c.k)
	}
	// Refuse the whole round before it scatters, so no shard stores part
	// of it.
	if err := iot.ValidateReadings(perNode); err != nil {
		return err
	}
	c.clock++
	split := make([][][]float64, len(c.nets))
	for s, ids := range c.ids {
		if len(ids) == 0 {
			continue
		}
		batch := make([][]float64, len(ids))
		for j, g := range ids {
			batch[j] = perNode[g]
		}
		split[s] = batch
	}
	var partial error
	err := c.scatter(func(s int) error {
		if err := c.nets[s].IngestRound(split[s]); err != nil {
			if errors.Is(err, iot.ErrPartialRound) {
				partial = err // deterministic: scatter keeps first by shard order
				return nil
			}
			return err
		}
		return nil
	})
	c.recomposeLocked()
	if err != nil {
		return err
	}
	return partial
}

// SetDown changes a node's reachability on its owning shard (global
// node id) and recomposes coverage.
func (c *Cluster) SetDown(nodeID int, down bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.Owner(nodeID)
	if err != nil {
		return err
	}
	if err := c.nets[s].SetDown(nodeID, down); err != nil {
		return err
	}
	c.recomposeLocked()
	return nil
}

// SampleSets returns the composed per-node sample sets, ascending
// global node id — what a single-broker base station would serve.
func (c *Cluster) SampleSets() []*sampling.SampleSet {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap.sets
}

// Rate returns the fleet-wide guaranteed sampling rate: the minimum
// over shards, which is the minimum over the same per-node rates the
// single broker takes.
func (c *Cluster) Rate() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap.rate
}

// NumNodes returns the fleet-wide k.
func (c *Cluster) NumNodes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap.nodes
}

// TotalN returns the fleet-wide |D|.
func (c *Cluster) TotalN() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap.n
}

// Coverage returns the fraction of records held by currently reachable
// nodes across all shards.
func (c *Cluster) Coverage() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.snap.coverage
}

// Snapshot implements the Source contract: the composed sample sets,
// the cluster-wide columnar index built over exactly those sets at the
// last recompose (nil only if that build failed), and the composed
// scalars. Sets, index and scalars are bit-identical to what the
// equivalent single-broker network would report.
func (c *Cluster) Snapshot() (sets []*sampling.SampleSet, idx *index.Index, rate float64, nodes, n int, version uint64, coverage float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sn := c.snap
	return sn.sets, sn.idx, sn.rate, sn.nodes, sn.n, sn.version, sn.coverage
}

// Cost returns the fleet-wide communication bill: the sum of every
// shard's cost report.
func (c *Cluster) Cost() iot.CostReport {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total iot.CostReport
	for _, nw := range c.nets {
		if nw == nil {
			continue
		}
		cost := nw.Cost()
		total.Messages += cost.Messages
		total.Bytes += cost.Bytes
		total.SamplesShipped += cost.SamplesShipped
		total.PiggybackedReports += cost.PiggybackedReports
		total.Retransmissions += cost.Retransmissions
		total.CorruptedMessages += cost.CorruptedMessages
	}
	return total
}

// Instrument attaches per-shard collection metrics to every member
// network, labeling each series with shard="s" on top of the given
// static labels, so operators can see rounds, coverage, bytes and
// breaker transitions per shard. Only deployment aggregates cross into
// telemetry, exactly as for a single network.
func (c *Cluster) Instrument(r *telemetry.Registry, labels ...telemetry.Label) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, nw := range c.nets {
		if nw == nil {
			continue
		}
		shardLabels := append([]telemetry.Label{telemetry.L("shard", strconv.Itoa(s))}, labels...)
		nw.SetTelemetry(iot.NewMetrics(r, shardLabels...))
	}
}
