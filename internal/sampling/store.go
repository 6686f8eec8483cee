package sampling

import (
	"fmt"
	"math"

	"privrange/internal/stats"
)

// NodeStore is the node-side data store: run-length leaves holding the
// node's full local dataset D_i in sorted order, plus the current
// sample as ascending ranks with their values, so an existing Bernoulli
// sample can grow to a higher rate without discarding the samples
// already shipped (the paper's "collect more samples" path).
//
// Top-up rule: a sample drawn at rate p0 is upgraded to rate p1 > p0 by
// including each previously unsampled instance independently with
// probability (p1−p0)/(1−p0); inclusion probabilities compose to exactly
// p1 and remain independent across instances. The top-up is only valid
// while the underlying data is unchanged — any insert invalidates it and
// forces a fresh draw.
//
// Both draws step over geometric gaps between picks (THEORY §6) and
// fetch the picked values in one forward pass over the leaves, so a draw
// costs O(samples) random variates and reads only leaves that hold a
// picked rank.
type NodeStore struct {
	tree  osTree
	rng   *stats.RNG
	id    int
	rate  float64
	dirty bool // data changed since the last draw
	gen   int  // incremented on every full (non-top-up) draw
	// sample is the current sample, ascending by rank. SampleAt hands
	// it out without copying, so it is never mutated: a full draw
	// allocates a new slice and a top-up merges into one.
	sample []Sample
}

// NewNodeStore returns an empty store for node id. Sampling is
// deterministic given seed.
func NewNodeStore(id int, seed int64) *NodeStore {
	root := stats.NewRNG(seed)
	// Every node's sampling stream, and every pinned release built on
	// it, starts after the seed's first variate: skipping this draw
	// would move them all.
	root.Int63()
	return &NodeStore{
		rng:   root.Child(int64(id)),
		id:    id,
		dirty: true,
	}
}

// ID returns the node identifier.
func (n *NodeStore) ID() int { return n.id }

// Len returns n_i, the size of the local dataset.
func (n *NodeStore) Len() int { return n.tree.size }

// Rate returns the Bernoulli rate of the most recent draw (0 before any
// draw).
func (n *NodeStore) Rate() float64 { return n.rate }

// Add inserts one reading into the local dataset. It invalidates any
// outstanding sample, since ranks shift. v must not be NaN: a NaN has no
// rank, and iot refuses NaN readings before any node stores them.
func (n *NodeStore) Add(v float64) {
	n.tree.insert(v)
	n.dirty = true
}

// AddAll inserts a batch of readings.
func (n *NodeStore) AddAll(vs []float64) {
	for _, v := range vs {
		n.Add(v)
	}
}

// CountRange returns the exact local range count γ(l, u, i) — ground
// truth for tests and experiment error measurement. It returns an error
// when l > u.
func (n *NodeStore) CountRange(l, u float64) (int, error) {
	if l > u {
		return 0, fmt.Errorf("sampling: range [%v, %v] has l > u", l, u)
	}
	return n.tree.countRange(l, u), nil
}

// SampleAt returns a rank-annotated Bernoulli sample of the current local
// dataset at rate p. When the data is unchanged and p is at least the
// previous rate, the previous sample is topped up (the instances already
// shipped stay in the set); otherwise a fresh draw happens. The
// returned set shares the store's current sample, which later draws
// never mutate: it is safe to retain, and callers must not modify it.
func (n *NodeStore) SampleAt(p float64) (*SampleSet, error) {
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("sampling: probability %v outside [0, 1]", p)
	}
	switch {
	case n.dirty || p < n.rate:
		n.fullDraw(p)
	case p > n.rate:
		n.topUp(p)
	}
	n.rate = p
	return &SampleSet{N: n.tree.size, Samples: n.sample}, nil
}

func (n *NodeStore) fullDraw(p float64) {
	n.sample = bernoulliRanks(n.tree.size, p, n.rng)
	n.tree.selectInto(n.sample)
	n.dirty = false
	n.gen++
}

// Generation identifies the current full draw: it increments whenever the
// store redraws from scratch (data changed, or the rate dropped) and is
// stable across top-ups. Consumers use it to decide whether previously
// shipped samples are still part of the current sample.
func (n *NodeStore) Generation() int { return n.gen }

// topUp runs the gap kernel over the unsampled positions only, at
// Pr[include | not yet included] = (p − rate) / (1 − rate), then maps
// each pick back to its rank and merges it into the sample.
func (n *NodeStore) topUp(p float64) {
	q := (p - n.rate) / (1 - n.rate)
	add := bernoulliRanks(n.tree.size-len(n.sample), q, n.rng)
	// The u-th unsampled rank is u plus the number of sampled ranks
	// below it; both sequences ascend, so one pass maps them all.
	j := 0
	for i := range add {
		for j < len(n.sample) && n.sample[j].Rank <= add[i].Rank+j {
			j++
		}
		add[i].Rank += j
	}
	n.tree.selectInto(add)
	n.sample = MergeByRank(n.sample, add)
}

// SampleCount returns how many instances the current sample holds (0
// before any draw).
func (n *NodeStore) SampleCount() int { return len(n.sample) }

// bernoulliRanks returns, in a new slice, one Sample, with only Rank
// set, for each position of 1..n that independent Bernoulli(q) trials
// pick, in ascending order. It steps over the gaps between picks instead
// of visiting every position: the failures before each success of i.i.d.
// Bernoulli(q) trials are i.i.d. Geometric(q) (THEORY §6), so the picks
// have exactly the law of one coin per position at O(picks) cost. q must
// lie in [0, 1]; q = 0 picks nothing and q = 1 picks every position.
func bernoulliRanks(n int, q float64, rng *stats.RNG) []Sample {
	if q <= 0 {
		return nil
	}
	// Room for the expected picks plus four standard deviations, so the
	// appends below rarely regrow the slice.
	mean := float64(n) * q
	dst := make([]Sample, 0, int(mean+4*math.Sqrt(mean*(1-q)))+1)
	// A gap ⌊E·scale⌋ with E ~ Exp(1) and scale = −1/ln(1−q) is
	// Geometric(q): Pr[⌊E·scale⌋ ≥ k] = e^{k·ln(1−q)} = (1−q)^k. The
	// scale is 0 at q = 1, where every gap is 0.
	scale := -1 / math.Log1p(-q)
	for pos := 0; ; {
		gap := math.Floor(rng.Exponential(scale))
		if gap >= float64(n-pos) {
			return dst
		}
		pos += 1 + int(gap)
		dst = append(dst, Sample{Rank: pos})
	}
}
