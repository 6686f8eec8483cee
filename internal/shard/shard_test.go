package shard

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"privrange/internal/index"
	"privrange/internal/iot"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0, 64); err == nil {
		t.Error("shard count 0: no error")
	}
	if _, err := NewRing(-1, 64); err == nil {
		t.Error("negative shard count: no error")
	}
	if _, err := NewRing(3, -1); err == nil {
		t.Error("negative replicas: no error")
	}
}

// TestRingDeterministic pins that ownership is a pure function of
// (node id, shard count): two independently built rings agree on every
// id.
func TestRingDeterministic(t *testing.T) {
	for _, s := range []int{1, 2, 3, 8, 17} {
		a, err := NewRing(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRing(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 2000; id++ {
			if a.Owner(id) != b.Owner(id) {
				t.Fatalf("S=%d id=%d: rebuilt ring disagrees", s, id)
			}
			if got := a.Owner(id); got < 0 || got >= s {
				t.Fatalf("S=%d id=%d: owner %d outside [0,%d)", s, id, got, s)
			}
		}
	}
}

// TestRingBalance checks the virtual replicas keep shard loads within a
// loose factor of the mean — consistent hashing is allowed to be
// uneven, but no shard should be starved or doubled-up wildly.
func TestRingBalance(t *testing.T) {
	const ids = 10000
	for _, s := range []int{2, 4, 8} {
		r, err := NewRing(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, s)
		for id := 0; id < ids; id++ {
			counts[r.Owner(id)]++
		}
		mean := float64(ids) / float64(s)
		for sh, c := range counts {
			if float64(c) < mean/3 || float64(c) > mean*3 {
				t.Errorf("S=%d shard %d owns %d of %d ids (mean %.0f)", s, sh, c, ids, mean)
			}
		}
	}
}

// TestRingStability pins the consistent-hashing property: growing the
// ring by one shard moves only a minority of ids.
func TestRingStability(t *testing.T) {
	const ids = 10000
	r4, err := NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRing(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for id := 0; id < ids; id++ {
		if r4.Owner(id) != r5.Owner(id) {
			moved++
		}
	}
	// Ideal is 1/5 of ids; allow twice that before calling it broken.
	if moved > 2*ids/5 {
		t.Errorf("growing 4->5 shards moved %d of %d ids", moved, ids)
	}
}

func testParts(k, perNode int) [][]float64 {
	parts := make([][]float64, k)
	for i := range parts {
		vals := make([]float64, perNode)
		for j := range vals {
			vals[j] = float64((i*perNode + j) % 100)
		}
		parts[i] = vals
	}
	return parts
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(nil, 2, iot.Config{}); err == nil {
		t.Error("no partitions: no error")
	}
	if _, err := New(testParts(4, 8), 0, iot.Config{}); err == nil {
		t.Error("shard count 0: no error")
	}
	if _, err := New(testParts(4, 8), 2, iot.Config{NodeIDs: []int{0, 1, 2, 3}}); err == nil {
		t.Error("explicit NodeIDs: no error")
	}
}

// TestClusterComposition pins that the composed snapshot reproduces the
// single-broker network bit-for-bit: same sets in the same order, same
// columnar index, same rate, same totals, same coverage — the invariant
// the engine's bit-identity guarantee stands on.
func TestClusterComposition(t *testing.T) {
	parts := testParts(12, 50)
	for _, s := range []int{1, 2, 3, 8} {
		single, err := iot.New(parts, iot.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := New(parts, s, iot.Config{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.EnsureRate(0.4); err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.EnsureRate(0.4); err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		wantSets, _, wantRate, wantNodes, wantN, _, wantCov := single.Snapshot()
		gotSets, _, gotRate, gotNodes, gotN, _, gotCov := cluster.Snapshot()
		if gotRate != wantRate || gotNodes != wantNodes || gotN != wantN || gotCov != wantCov {
			t.Errorf("S=%d: scalars (%v,%d,%d,%v) != single (%v,%d,%d,%v)",
				s, gotRate, gotNodes, gotN, gotCov, wantRate, wantNodes, wantN, wantCov)
		}
		if len(gotSets) != len(wantSets) {
			t.Fatalf("S=%d: %d sets != %d", s, len(gotSets), len(wantSets))
		}
		for i := range wantSets {
			if gotSets[i].N != wantSets[i].N || len(gotSets[i].Samples) != len(wantSets[i].Samples) {
				t.Fatalf("S=%d node %d: set shape differs", s, i)
			}
			for j := range wantSets[i].Samples {
				w, g := wantSets[i].Samples[j], gotSets[i].Samples[j]
				if w.Rank != g.Rank || math.Float64bits(w.Value) != math.Float64bits(g.Value) {
					t.Fatalf("S=%d node %d sample %d: %+v != %+v", s, i, j, g, w)
				}
			}
		}
		assertComposedIndex(t, fmt.Sprintf("S=%d", s), cluster, single)
	}
}

// assertComposedIndex checks that the cluster's Snapshot carries a
// columnar index built from exactly the sets it returns, and equal to
// index.Build over the single-broker network's sets: the index the
// engine estimates over is the one a single broker would build.
func assertComposedIndex(t *testing.T, label string, cluster *Cluster, single *iot.Network) {
	t.Helper()
	sets, got, _, _, _, _, _ := cluster.Snapshot()
	if got == nil {
		t.Fatalf("%s: composed Snapshot carries no index", label)
	}
	own, err := index.Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, label+" vs its own sets", got, own)
	want, err := index.Build(single.SampleSets())
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, label+" vs single broker", got, want)
}

// assertIndexEqual compares two indexes node for node: shape, dataset
// sizes, and every value and rank column bit for bit.
func assertIndexEqual(t *testing.T, label string, got, want *index.Index) {
	t.Helper()
	if got.Nodes() != want.Nodes() || got.Samples() != want.Samples() || got.TotalN() != want.TotalN() {
		t.Fatalf("%s: index shape (%d nodes, %d samples, N=%d) != (%d, %d, %d)", label,
			got.Nodes(), got.Samples(), got.TotalN(), want.Nodes(), want.Samples(), want.TotalN())
	}
	for i := 0; i < want.Nodes(); i++ {
		gv, gr, gn := got.Node(i)
		wv, wr, wn := want.Node(i)
		if gn != wn || len(gv) != len(wv) || len(gr) != len(wr) {
			t.Fatalf("%s node %d: n=%d with %d samples != n=%d with %d", label, i, gn, len(gv), wn, len(wv))
		}
		for j := range wv {
			if math.Float64bits(gv[j]) != math.Float64bits(wv[j]) || gr[j] != wr[j] {
				t.Fatalf("%s node %d sample %d: (%v, %d) != (%v, %d)", label, i, j, gv[j], gr[j], wv[j], wr[j])
			}
		}
	}
}

// TestClusterIngestAndSetDown drives membership and ingestion through
// the cluster and checks the composed state tracks a single-broker
// network running the same script.
func TestClusterIngestAndSetDown(t *testing.T) {
	parts := testParts(10, 30)
	single, err := iot.New(parts, iot.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := New(parts, 3, iot.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}

	round := make([][]float64, 10)
	for i := range round {
		round[i] = []float64{float64(i), float64(i + 1)}
	}
	if err := single.IngestRound(round); err != nil {
		t.Fatal(err)
	}
	if err := cluster.IngestRound(round); err != nil {
		t.Fatal(err)
	}
	if got, want := cluster.TotalN(), single.TotalN(); got != want {
		t.Errorf("after ingest: N %d != %d", got, want)
	}
	assertComposedIndex(t, "after ingest", cluster, single)
	if err := cluster.IngestRound(round[:3]); err == nil {
		t.Error("short round: no error")
	}

	if err := cluster.SetDown(7, true); err != nil {
		t.Fatal(err)
	}
	if err := single.SetDown(7, true); err != nil {
		t.Fatal(err)
	}
	if got, want := cluster.Coverage(), single.Coverage(); got != want {
		t.Errorf("down node: coverage %v != %v", got, want)
	}
	if cluster.Coverage() >= 1 {
		t.Errorf("down node: coverage %v not < 1", cluster.Coverage())
	}
	assertComposedIndex(t, "after SetDown", cluster, single)
	if err := cluster.SetDown(99, true); err == nil {
		t.Error("unknown node: no error")
	}
	if err := cluster.SetDown(7, false); err != nil {
		t.Fatal(err)
	}
	if cluster.Coverage() != 1 {
		t.Errorf("recovered: coverage %v != 1", cluster.Coverage())
	}
}

// TestClusterPartialRound checks a crashed node surfaces as the same
// partial-round error shape the single-broker network reports, with the
// failed node's global id in the composed report.
func TestClusterPartialRound(t *testing.T) {
	parts := testParts(8, 20)
	cfg := iot.Config{
		Seed: 3,
		Faults: map[int]iot.FaultProfile{
			5: {CrashWindows: []iot.CrashWindow{{From: 1, Until: 1 << 30}}},
		},
	}
	cluster, err := New(parts, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cluster.EnsureRate(0.5)
	if !errors.Is(err, iot.ErrPartialRound) {
		t.Fatalf("want ErrPartialRound, got %v", err)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
	if _, ok := rep.Failed[5]; !ok {
		t.Errorf("failed map %v missing global id 5", rep.Failed)
	}
	if rep.Coverage >= 1 {
		t.Errorf("coverage %v not < 1 with a crashed node", rep.Coverage)
	}
}

// TestClusterCost checks the composed bill sums every shard's.
func TestClusterCost(t *testing.T) {
	parts := testParts(9, 25)
	cluster, err := New(parts, 3, iot.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	var want iot.CostReport
	for s := 0; s < cluster.NumShards(); s++ {
		nw := cluster.Shard(s)
		if nw == nil {
			continue
		}
		cost := nw.Cost()
		want.Messages += cost.Messages
		want.Bytes += cost.Bytes
		want.SamplesShipped += cost.SamplesShipped
	}
	got := cluster.Cost()
	if got.Messages != want.Messages || got.Bytes != want.Bytes || got.SamplesShipped != want.SamplesShipped {
		t.Errorf("composed cost %+v != summed %+v", got, want)
	}
	if got.Messages == 0 || got.Bytes == 0 {
		t.Errorf("composed cost %+v is empty after a collection round", got)
	}
}
