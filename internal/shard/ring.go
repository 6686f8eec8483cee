// Package shard partitions an IoT fleet across S broker shards, each
// owning its own collection loop and base station. A Cluster
// implements the broker engine's Source contract over the composed
// state: the shards' sample sets merged into global node order and one
// columnar index built over them.
//
// Determinism is the design bar: node-to-shard assignment is a pure
// function of (node id, shard count), every node keeps the per-id
// sampling stream it would have in a single-broker network (shards are
// built with global node ids — see iot.Config.NodeIDs), and the
// composed snapshot reproduces the single-broker sets, index and
// scalars bit-for-bit (rate as the same float min, coverage from the
// same integer ratio). The engine estimates over it exactly as over a
// single network, so released answers are bit-identical to the
// unsharded engine for any shard count and any GOMAXPROCS.
package shard

import (
	"fmt"
	"sort"
)

// defaultReplicas is the number of virtual points each shard projects
// onto the hash ring. More points smooth the node distribution across
// shards; 64 keeps the worst shard within a few percent of the mean for
// realistic fleet sizes.
const defaultReplicas = 64

// mix64 is the SplitMix64 finalizer — a strong, deterministic 64-bit
// mixing function. It is a hash, not an entropy source: shard
// assignment must be a pure function of the id so every process (and
// every shard count sweep in the determinism suite) agrees on
// ownership.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringPoint is one virtual shard replica on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring assigns node ids to shards by consistent hashing: each shard
// projects replicas virtual points onto the 64-bit ring, a node id
// hashes to a point, and the node is owned by the first shard point at
// or clockwise of it. Adding or removing one shard therefore moves only
// ~1/S of the nodes — the property that makes later resharding cheap.
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	shards int
	points []ringPoint
}

// NewRing builds a ring of the given shard count. Zero replicas selects
// defaultReplicas.
func NewRing(shards, replicas int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", shards)
	}
	if replicas < 0 {
		return nil, fmt.Errorf("shard: negative replica count %d", replicas)
	}
	if replicas == 0 {
		replicas = defaultReplicas
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			// Salt the shard and replica lanes separately so point sets of
			// different shards are uncorrelated.
			h := mix64(mix64(uint64(s)+1) ^ mix64(uint64(v)|0x5bd1e995<<32))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on shard index so the order (hence ownership) is
		// deterministic even on hash collisions.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count S.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard owning the given node id.
func (r *Ring) Owner(nodeID int) int {
	h := mix64(uint64(nodeID))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the top of the ring
	}
	return r.points[i].shard
}
