// Package iot simulates the paper's IoT data-collection substrate: k
// sensor nodes holding local datasets, a base station aggregating
// rank-annotated samples, flat and tree communication topologies, and
// exact communication-cost accounting in messages, bytes and samples.
//
// Every message physically round-trips through the internal/wire codec,
// so the byte counts the cost report shows are the true on-the-wire sizes
// and the integration continuously exercises the codec.
package iot

import (
	"fmt"

	"privrange/internal/sampling"
	"privrange/internal/wire"
)

// Node is one simulated sensor node: a local data store plus the protocol
// state needed to ship samples incrementally.
type Node struct {
	id    int
	store *sampling.NodeStore
	// shippedGen is the store generation of the last *acknowledged*
	// report; when the store redrew since, the next report must replace
	// rather than merge.
	shippedGen int
	// shipped holds, ascending by rank, the samples of the current
	// generation the base station has confirmed receiving.
	shipped []sampling.Sample
	// pending is the last built-but-unacknowledged report and
	// pendingSet the whole sample it was cut from. Shipment bookkeeping
	// only advances on AckReport, so a report lost in transit is simply
	// rebuilt by the next HandleResample — nothing is silently dropped.
	pending    *wire.SampleReport
	pendingSet []sampling.Sample
}

// NewNode returns an empty node with deterministic sampling behaviour.
func NewNode(id int, seed int64) *Node {
	return &Node{
		id:         id,
		store:      sampling.NewNodeStore(id, seed),
		shippedGen: -1,
	}
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// Len returns n_i, the local dataset size.
func (n *Node) Len() int { return n.store.Len() }

// Load appends readings to the node's local dataset.
func (n *Node) Load(values []float64) {
	n.store.AddAll(values)
}

// Observe appends a single reading (streaming ingestion).
func (n *Node) Observe(v float64) {
	n.store.Add(v)
}

// CountRange returns the exact local range count — ground truth for
// experiments, never transmitted in the protocol.
func (n *Node) CountRange(l, u float64) (int, error) {
	return n.store.CountRange(l, u)
}

// HandleResample executes a base-station resample command: it (re)draws
// or tops up the local sample at the requested rate and returns the
// report containing exactly the samples the base station does not yet
// hold. A full redraw (changed data or lowered rate) yields a Replace
// report.
func (n *Node) HandleResample(cmd *wire.Resample) (*wire.SampleReport, error) {
	if cmd == nil {
		return nil, fmt.Errorf("iot: nil resample command")
	}
	if cmd.NodeID != n.id {
		return nil, fmt.Errorf("iot: resample for node %d delivered to node %d", cmd.NodeID, n.id)
	}
	set, err := n.store.SampleAt(cmd.Rate)
	if err != nil {
		return nil, fmt.Errorf("iot: node %d resample: %w", n.id, err)
	}
	report := &wire.SampleReport{NodeID: n.id, N: set.N}
	if n.store.Generation() != n.shippedGen {
		// Fresh draw: everything ships, prior base-station state is void.
		report.Replace = true
		report.Samples = set.Samples
	} else {
		// Top-up: ship only samples the base station has not confirmed,
		// the sorted difference of the sample's and the shipped ranks.
		shipped := n.shipped
		for _, s := range set.Samples {
			for len(shipped) > 0 && shipped[0].Rank < s.Rank {
				shipped = shipped[1:]
			}
			if len(shipped) == 0 || shipped[0].Rank != s.Rank {
				report.Samples = append(report.Samples, s)
			}
		}
	}
	n.pending, n.pendingSet = report, set.Samples
	return report, nil
}

// AckReport confirms that the base station received the report returned
// by the last HandleResample; only then does the node stop reshipping
// those samples. Acking with no pending report is a no-op.
//
// Within a generation the sample only grows, so the samples shipped
// before the report are a subset of the set it was cut from: after the
// ack the base station holds exactly that set.
func (n *Node) AckReport() {
	if n.pending == nil {
		return
	}
	if n.pending.Replace {
		n.shippedGen = n.store.Generation()
	}
	n.shipped = n.pendingSet
	n.pending, n.pendingSet = nil, nil
}

// Heartbeat produces the node's periodic liveness message.
func (n *Node) Heartbeat() *wire.Heartbeat {
	return &wire.Heartbeat{NodeID: n.id, N: n.store.Len()}
}
