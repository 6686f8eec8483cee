package core

import (
	"math"
	"testing"

	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/iot"
	"privrange/internal/sampling"
)

// noIndexSource strips the columnar index from a network's snapshots,
// forcing the engine onto the SampleSet fallback path — the correctness
// oracle the flat hot path must match bit-for-bit.
type noIndexSource struct{ *iot.Network }

func (s *noIndexSource) Snapshot() (sets []*sampling.SampleSet, idx *index.Index, rate float64, nodes, n int, version uint64, coverage float64) {
	sets, _, rate, nodes, n, version, coverage = s.Network.Snapshot()
	return sets, nil, rate, nodes, n, version, coverage
}

// TestAnswersBitIdenticalWithAndWithoutIndex proves the engine releases
// the exact same values whether estimation runs over the columnar index
// or over the raw sample sets: identical seeds, identical deployments,
// one engine denied the index.
func TestAnswersBitIdenticalWithAndWithoutIndex(t *testing.T) {
	t.Parallel()
	build := func(strip bool) *Engine {
		nw, _ := buildNetwork(t, 48, 40000, 7)
		src := Source(nw)
		if strip {
			src = &noIndexSource{Network: nw}
		}
		eng, err := New(src, WithSeed(41))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	flat, oracle := build(false), build(true)
	acc := estimator.Accuracy{Alpha: 0.1, Delta: 0.5}
	queries := make([]estimator.Query, 40)
	for i := range queries {
		queries[i] = estimator.Query{L: float64(3 * i), U: float64(3*i + 50)}
	}
	fb, err := flat.AnswerBatch(queries, acc)
	if err != nil {
		t.Fatal(err)
	}
	// The flat engine must actually have an index to make this test
	// meaningful: the warm-up collection inside AnswerBatch builds it.
	if snap := flat.readSnapshot(); snap.idx == nil {
		t.Fatal("flat engine snapshot carries no index after collection")
	} else if snap.idx.Nodes() != snap.nodes {
		t.Fatalf("index covers %d nodes, snapshot has %d", snap.idx.Nodes(), snap.nodes)
	}
	ob, err := oracle.AnswerBatch(queries, acc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if math.Float64bits(fb[i].Value) != math.Float64bits(ob[i].Value) {
			t.Fatalf("batch query %d: flat %v != oracle %v", i, fb[i].Value, ob[i].Value)
		}
	}
	for _, q := range queries[:8] {
		fa, err := flat.Answer(q, acc)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := oracle.Answer(q, acc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(fa.Value) != math.Float64bits(oa.Value) {
			t.Fatalf("query %v: flat %v != oracle %v", q, fa.Value, oa.Value)
		}
		fe, err := flat.EstimateOnly(q)
		if err != nil {
			t.Fatal(err)
		}
		oe, err := oracle.EstimateOnly(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(fe) != math.Float64bits(oe) {
			t.Fatalf("EstimateOnly %v: flat %v != oracle %v", q, fe, oe)
		}
	}
}
