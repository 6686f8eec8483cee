// Package privrange is a Go implementation of "Trading Private Range
// Counting over Big IoT Data" (Cai & He, ICDCS 2019): a broker framework
// that sells differentially-private approximate range-counting answers
// over distributed IoT data.
//
// The pipeline, end to end:
//
//   - IoT nodes Bernoulli-sample their local data and ship each sampled
//     value with its local rank; the base station needs only ~√k/α
//     samples instead of the whole dataset.
//   - The RankCounting estimator reconstructs unbiased range counts from
//     those rank-annotated samples with variance ≤ 2k(1−p)/p², independent
//     of the queried range's width (the paper bounds it by 8k/p²).
//   - For each customer request Λ(α, δ), an optimizer splits the error
//     budget between sampling and Laplace noise so the released answer is
//     (α, δ)-accurate with the smallest effective privacy budget
//     ε′ = ln(1 + p(e^ε − 1)).
//   - An arbitrage-avoiding tariff prices answers by their variance so
//     buying many cheap noisy answers and averaging them never undercuts
//     the honest price.
//
// # Quick start
//
//	sys, err := privrange.NewSystem(values, privrange.Options{Nodes: 16})
//	if err != nil { ... }
//	ans, err := sys.Count(50, 100, privrange.Accuracy{Alpha: 0.05, Delta: 0.9})
//	fmt.Println(ans.Value, ans.EpsilonPrime)
//
// For the trading layer (pricing, ledger, TCP protocol), see Marketplace.
package privrange

import (
	"errors"
	"fmt"

	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/optimize"
	"privrange/internal/shard"
)

// Accuracy is an (α, δ) accuracy requirement (Definition 2.2 of the
// paper): the released count must be within ±α·|D| of the truth with
// probability at least δ. Both parameters must lie strictly in (0, 1).
type Accuracy struct {
	Alpha float64
	Delta float64
}

func (a Accuracy) internal() estimator.Accuracy {
	return estimator.Accuracy{Alpha: a.Alpha, Delta: a.Delta}
}

// Validate reports whether the requirement is well-formed.
func (a Accuracy) Validate() error { return a.internal().Validate() }

// Answer is one released private range-counting result.
type Answer struct {
	// Value is the ε′-differentially-private estimate. It may fall
	// outside [0, N]; Clamped truncates it for display.
	Value float64
	// Clamped is Value truncated to [0, N] (safe post-processing).
	Clamped float64
	// AlphaPrime and DeltaPrime are the internal sampling-phase accuracy
	// the optimizer chose.
	AlphaPrime, DeltaPrime float64
	// Epsilon is the Laplace mechanism's base budget; EpsilonPrime is the
	// effective guarantee after privacy amplification by sampling — the
	// quantity the system minimizes.
	Epsilon, EpsilonPrime float64
	// SamplingRate is the Bernoulli rate the answer was computed at.
	SamplingRate float64
	// Nodes and N describe the deployment.
	Nodes, N int
	// Coverage is the fraction of records held by reachable nodes when
	// the answer was released: 1 means full coverage, less means the
	// answer leaned on stale samples from unreachable nodes (see
	// Options.BestEffort).
	Coverage float64
	// CollectionVersion identifies the sample state the answer was
	// computed against; it moves whenever any node's stored sample is
	// rewritten.
	CollectionVersion uint64
}

// CommCost reports the deployment's cumulative communication bill.
type CommCost struct {
	// Messages is the number of protocol messages exchanged.
	Messages int
	// Bytes is the hop-weighted on-the-wire volume.
	Bytes int64
	// SamplesShipped counts rank-annotated samples transferred.
	SamplesShipped int
}

// ErrInfeasible is returned when a requested accuracy cannot be met. Use
// errors.Is.
var ErrInfeasible = errors.New("privrange: accuracy requirement infeasible")

// Options configures NewSystem. The zero value is usable.
type Options struct {
	// Nodes is the number of simulated IoT nodes the data is spread
	// across. Zero selects 16.
	Nodes int
	// Shards is the number of broker shards the fleet is partitioned
	// across (consistent hashing on node id). Each shard owns its own
	// collection loop and base station, and collection rounds run on
	// every shard concurrently. After each round the shards' samples
	// are merged into one columnar index that queries estimate over,
	// so answers are bit-identical to the single-broker engine for any
	// shard count. Zero or one selects the single-broker deployment.
	Shards int
	// Seed drives all randomness (sampling and noise) deterministically.
	Seed int64
	// TotalBudget caps the cumulative effective privacy loss Σε′ across
	// answers; once exhausted, Count and CountBatch fail. Zero means
	// uncapped.
	TotalBudget float64
	// Tree switches the simulated network from the flat topology to a
	// balanced aggregation tree (affects communication cost only).
	Tree bool
	// CacheAnswers re-serves already-released answers for repeated
	// identical requests at zero additional privacy cost (free
	// post-processing), which also makes averaging repeat purchases
	// pointless. Off by default: the paper's broker draws fresh noise
	// per sale.
	CacheAnswers bool
	// BestEffort tolerates partially-failed collection rounds: when some
	// nodes cannot be reached, queries are answered at whatever rate the
	// degraded network still guarantees, and the released Answer's
	// Coverage/CollectionVersion fields document the degradation. Off by
	// default — the strict policy fails the query on any collection
	// error, today's historical behavior.
	BestEffort bool
	// Faults schedules per-node fault injection (per-node loss rates,
	// byte corruption, crash/recover windows) for chaos testing. Keys
	// are node ids in [0, Nodes).
	Faults map[int]iot.FaultProfile
}

// System is a self-contained deployment: simulated IoT network, base
// station, and private query engine over one dataset. A System is safe
// for concurrent use — queries estimate in parallel against immutable
// sample snapshots while ingestion and collection serialize behind
// writer locks (see DESIGN.md §6 for the concurrency model).
type System struct {
	network    deployment
	engine     *core.Engine
	accountant *dp.Accountant
}

// deployment is the facade's view of the collection tier: the engine's
// Source contract plus the operational surface System exposes. Both the
// single-broker iot.Network and the sharded shard.Cluster satisfy it.
type deployment interface {
	core.Source
	Rate() float64
	NumNodes() int
	TotalN() int
	Coverage() float64
	SetDown(nodeID int, down bool) error
	IngestRound(perNode [][]float64) error
	Cost() iot.CostReport
}

// NewSystem builds a deployment over the given readings. The values are
// distributed across opt.Nodes simulated sensors; samples are collected
// lazily when the first query needs them. A NaN reading is refused.
func NewSystem(values []float64, opt Options) (*System, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("privrange: no data")
	}
	nodes := opt.Nodes
	if nodes == 0 {
		nodes = 16
	}
	if nodes < 1 || nodes > len(values) {
		return nil, fmt.Errorf("privrange: node count %d outside [1, %d]", nodes, len(values))
	}
	parts := partition(values, nodes)
	topo := iot.Flat
	if opt.Tree {
		topo = iot.Tree
	}
	cfg := iot.Config{Seed: opt.Seed, Topology: topo, Faults: opt.Faults}
	var network deployment
	if opt.Shards > 1 {
		cluster, err := shard.New(parts, opt.Shards, cfg)
		if err != nil {
			return nil, err
		}
		network = cluster
	} else {
		if opt.Shards < 0 {
			return nil, fmt.Errorf("privrange: negative shard count %d", opt.Shards)
		}
		nw, err := iot.New(parts, cfg)
		if err != nil {
			return nil, err
		}
		network = nw
	}
	accountant, err := dp.NewAccountant(opt.TotalBudget)
	if err != nil {
		return nil, err
	}
	policy := core.Strict
	if opt.BestEffort {
		policy = core.BestEffort
	}
	engine, err := core.New(network,
		core.WithSeed(opt.Seed+1),
		core.WithAccountant(accountant),
		core.WithAnswerCache(opt.CacheAnswers),
		core.WithDegradationPolicy(policy),
	)
	if err != nil {
		return nil, err
	}
	return &System{network: network, engine: engine, accountant: accountant}, nil
}

func partition(values []float64, k int) [][]float64 {
	parts := make([][]float64, k)
	base := len(values) / k
	extra := len(values) % k
	offset := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		parts[i] = values[offset : offset+size]
		offset += size
	}
	return parts
}

// Count answers an (α, δ)-range-counting query over [l, u] with the
// strongest feasible differential privacy. The network is driven to
// collect more samples automatically when needed.
func (s *System) Count(l, u float64, acc Accuracy) (*Answer, error) {
	ans, err := s.engine.Answer(estimator.Query{L: l, U: u}, acc.internal())
	if err != nil {
		return nil, wrapInfeasible(err)
	}
	return publicAnswer(ans), nil
}

// Range is a query interval [L, U] for batch requests.
type Range struct {
	L, U float64
}

// CountBatch answers many range queries at one shared accuracy level
// and returns exactly what calling Count on each range in order would:
// one optimizer plan serves the batch, but every answer carries its own
// noise draw and is charged its own ε′. It stops at the first range that
// fails (an exhausted TotalBudget, say) and returns the answers released
// before it together with that range's error; those answers are already
// on the ledger. A batch holding an invalid range releases nothing.
func (s *System) CountBatch(ranges []Range, acc Accuracy) ([]*Answer, error) {
	queries := make([]estimator.Query, len(ranges))
	for i, r := range ranges {
		queries[i] = estimator.Query{L: r.L, U: r.U}
	}
	raw, err := s.engine.AnswerBatch(queries, acc.internal())
	out := make([]*Answer, len(raw))
	for i, ans := range raw {
		out[i] = publicAnswer(ans)
	}
	return out, wrapInfeasible(err)
}

// wrapInfeasible marks an unmeetable accuracy requirement with
// ErrInfeasible, keeping the cause in the chain; other errors (and nil)
// pass through.
func wrapInfeasible(err error) error {
	if errors.Is(err, optimize.ErrInfeasible) || errors.Is(err, core.ErrUnachievable) {
		return fmt.Errorf("%w: %w", ErrInfeasible, err)
	}
	return err
}

// publicAnswer converts an engine release to the facade's Answer.
func publicAnswer(ans *core.Answer) *Answer {
	return &Answer{
		Value:             ans.Value,
		Clamped:           ans.Clamped(),
		AlphaPrime:        ans.Plan.AlphaPrime,
		DeltaPrime:        ans.Plan.DeltaPrime,
		Epsilon:           ans.Plan.Epsilon,
		EpsilonPrime:      ans.Plan.EpsilonPrime,
		SamplingRate:      ans.Rate,
		Nodes:             ans.Nodes,
		N:                 ans.N,
		Coverage:          ans.Coverage,
		CollectionVersion: ans.CollectionVersion,
	}
}

// Ingest appends new readings to the deployment (continuous data
// collection), spreading them across the simulated nodes round-robin and
// refreshing the collected samples at the current rate. Subsequent
// queries see the grown dataset. A batch holding a NaN reading is
// refused whole: no node stores any of it.
func (s *System) Ingest(values []float64) error {
	if len(values) == 0 {
		return nil
	}
	// Node i takes values i, i+k, i+2k, …; every node's batch is cut,
	// in node order, from one backing array.
	k := s.network.NumNodes()
	perNode := make([][]float64, k)
	backing := make([]float64, len(values))
	lo := 0
	for i := range perNode {
		hi := lo
		for j := i; j < len(values); j += k {
			backing[hi] = values[j]
			hi++
		}
		perNode[i] = backing[lo:hi:hi]
		lo = hi
	}
	return s.network.IngestRound(perNode)
}

// SpentBudget returns the cumulative effective privacy loss Σε′ released
// so far.
func (s *System) SpentBudget() float64 { return s.accountant.Spent() }

// Cost returns the network's communication bill.
func (s *System) Cost() CommCost {
	c := s.network.Cost()
	return CommCost{Messages: c.Messages, Bytes: c.Bytes, SamplesShipped: c.SamplesShipped}
}

// SamplingRate returns the Bernoulli rate the base station currently
// holds (0 before the first query).
func (s *System) SamplingRate() float64 { return s.network.Rate() }

// Coverage returns the fraction of records held by currently reachable
// nodes (1 when every node is up).
func (s *System) Coverage() float64 { return s.network.Coverage() }

// SetNodeDown marks a node unreachable (true) or reachable (false) for
// availability experiments; queries keep serving the node's stale
// samples while it is down.
func (s *System) SetNodeDown(id int, down bool) error { return s.network.SetDown(id, down) }

// N returns the dataset size |D|.
func (s *System) N() int { return s.network.TotalN() }

// Nodes returns the node count k.
func (s *System) Nodes() int { return s.network.NumNodes() }
