// Package sampling implements the node-side sampling substrate of the
// paper: an order-statistic tree over each node's local data (so local
// ranks r(x, i) cost O(log n) even while data keeps arriving), Bernoulli
// rank-annotated sampling that costs O(samples) rather than O(n_i), and
// sample stores that support the paper's accuracy-driven sample top-up
// ("if the existing samples are unable to satisfy the query accuracy
// requirement, more samples should be drawn").
//
// Rank semantics: node i keeps its local dataset D_i in sorted order;
// the j-th instance in that order has rank j (1-based). Duplicate values
// are distinct instances with consecutive ranks, so every rank computation
// below is exact even on integer-valued sensor data — this is what keeps
// the RankCounting estimator exactly unbiased (see internal/estimator).
package sampling

import (
	"fmt"

	"privrange/internal/stats"
)

// OSTree is an order-statistic treap: a randomized balanced BST augmented
// with subtree sizes. It stores a multiset of float64 values and answers
// rank queries in O(log n) expected time. The zero value is NOT ready to
// use; construct with NewOSTree so node priorities are deterministic.
type OSTree struct {
	root *osNode
	rng  *stats.RNG
	size int
}

type osNode struct {
	value    float64
	priority int64
	count    int // multiplicity of value at this node
	size     int // total instances in this subtree (incl. multiplicity)
	left     *osNode
	right    *osNode
}

// NewOSTree returns an empty tree whose internal priorities are drawn from
// a deterministic stream seeded with seed, so tree shape (and therefore
// iteration cost) is reproducible.
func NewOSTree(seed int64) *OSTree {
	return &OSTree{rng: stats.NewRNG(seed)}
}

// Len returns the number of stored instances (counting duplicates).
func (t *OSTree) Len() int { return t.size }

func nodeSize(n *osNode) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *osNode) update() {
	n.size = n.count + nodeSize(n.left) + nodeSize(n.right)
}

// Insert adds one instance of v to the multiset.
func (t *OSTree) Insert(v float64) {
	t.root = t.insert(t.root, v)
	t.size++
}

func (t *OSTree) insert(n *osNode, v float64) *osNode {
	if n == nil {
		return &osNode{value: v, priority: t.rng.Int63(), count: 1, size: 1}
	}
	switch {
	case v == n.value:
		n.count++
		n.size++
	case v < n.value:
		n.left = t.insert(n.left, v)
		if n.left.priority > n.priority {
			n = rotateRight(n)
		} else {
			n.update()
		}
	default:
		n.right = t.insert(n.right, v)
		if n.right.priority > n.priority {
			n = rotateLeft(n)
		} else {
			n.update()
		}
	}
	return n
}

func rotateRight(n *osNode) *osNode {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft(n *osNode) *osNode {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

// RankLT returns the number of instances with value strictly less than v.
func (t *OSTree) RankLT(v float64) int {
	n := t.root
	rank := 0
	for n != nil {
		switch {
		case v <= n.value:
			if v == n.value {
				return rank + nodeSize(n.left)
			}
			n = n.left
		default:
			rank += nodeSize(n.left) + n.count
			n = n.right
		}
	}
	return rank
}

// RankLE returns the number of instances with value less than or equal to
// v.
func (t *OSTree) RankLE(v float64) int {
	n := t.root
	rank := 0
	for n != nil {
		if v < n.value {
			n = n.left
		} else {
			rank += nodeSize(n.left)
			if v == n.value {
				return rank + n.count
			}
			rank += n.count
			n = n.right
		}
	}
	return rank
}

// CountRange returns |{x : l ≤ x ≤ u}|, the node-local exact range count.
// It returns an error when l > u.
func (t *OSTree) CountRange(l, u float64) (int, error) {
	if l > u {
		return 0, fmt.Errorf("sampling: range [%v, %v] has l > u", l, u)
	}
	return t.RankLE(u) - t.RankLT(l), nil
}

// Select returns the value of the instance with 1-based rank r.
// It returns an error when r is outside [1, Len()].
func (t *OSTree) Select(r int) (float64, error) {
	if r < 1 || r > t.size {
		return 0, fmt.Errorf("sampling: rank %d outside [1, %d]", r, t.size)
	}
	n := t.root
	for n != nil {
		leftSize := nodeSize(n.left)
		switch {
		case r <= leftSize:
			n = n.left
		case r <= leftSize+n.count:
			return n.value, nil
		default:
			r -= leftSize + n.count
			n = n.right
		}
	}
	// Unreachable when size bookkeeping is correct.
	return 0, fmt.Errorf("sampling: select fell off tree (corrupt size)")
}

// selectInto sets samples[j].Value to the value of the instance with
// rank samples[j].Rank, for every j. The ranks must be strictly
// ascending within [1, Len()]. It is one in-order walk that enters only
// subtrees holding a wanted rank, so it visits O(min(distinct values,
// len(samples)·height)) nodes; duplicates of a value share one node.
func (t *OSTree) selectInto(samples []Sample) {
	selectWalk(t.root, 0, samples)
}

// selectWalk fills samples, whose ranks all lie in (base, base+n.size].
func selectWalk(n *osNode, base int, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	leftEnd := base + nodeSize(n.left)
	i := 0
	for i < len(samples) && samples[i].Rank <= leftEnd {
		i++
	}
	selectWalk(n.left, base, samples[:i])
	j := i
	for j < len(samples) && samples[j].Rank <= leftEnd+n.count {
		samples[j].Value = n.value
		j++
	}
	selectWalk(n.right, leftEnd+n.count, samples[j:])
}

// Min returns the smallest stored value. ok is false when the tree is
// empty.
func (t *OSTree) Min() (v float64, ok bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.value, true
}

// Max returns the largest stored value. ok is false when the tree is
// empty.
func (t *OSTree) Max() (v float64, ok bool) {
	n := t.root
	if n == nil {
		return 0, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.value, true
}

// Height returns the height of the treap (0 for empty). Exposed for tests
// asserting the randomized balancing works.
func (t *OSTree) Height() int {
	var h func(n *osNode) int
	h = func(n *osNode) int {
		if n == nil {
			return 0
		}
		l, r := h(n.left), h(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return h(t.root)
}
