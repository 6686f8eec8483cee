package iot

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/wire"
)

func buildParts(t *testing.T, k, records int, seed int64) ([][]float64, *dataset.Series) {
	t.Helper()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed, Records: records})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	return parts, series
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty partitions should fail")
	}
	if _, err := New([][]float64{{1}}, Config{Topology: Topology(9)}); err == nil {
		t.Error("unknown topology should fail")
	}
	if _, err := New([][]float64{{1}}, Config{TreeFanout: -1}); err == nil {
		t.Error("negative fanout should fail")
	}
}

func TestEnsureRateCollectsSamples(t *testing.T) {
	t.Parallel()
	parts, series := buildParts(t, 8, 4000, 1)
	nw, err := New(parts, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != 8 || nw.TotalN() != series.Len() {
		t.Fatalf("network shape wrong: k=%d n=%d", nw.NumNodes(), nw.TotalN())
	}
	const p = 0.2
	if _, err := nw.EnsureRate(p); err != nil {
		t.Fatal(err)
	}
	sets := nw.SampleSets()
	if len(sets) != 8 {
		t.Fatalf("got %d sample sets", len(sets))
	}
	total := 0
	for _, set := range sets {
		if err := set.Validate(); err != nil {
			t.Fatalf("invalid set at base station: %v", err)
		}
		total += len(set.Samples)
	}
	rate := float64(total) / float64(series.Len())
	if math.Abs(rate-p) > 0.03 {
		t.Errorf("collected rate %v, want ~%v", rate, p)
	}
	if nw.base.TotalN() != series.Len() {
		t.Errorf("base station TotalN = %d, want %d", nw.base.TotalN(), series.Len())
	}
}

func TestEstimatorOverNetworkSamples(t *testing.T) {
	t.Parallel()
	parts, series := buildParts(t, 10, 8000, 3)
	nw, err := New(parts, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const p = 0.3
	if _, err := nw.EnsureRate(p); err != nil {
		t.Fatal(err)
	}
	q := estimator.Query{L: 40, U: 90}
	truth, err := series.RangeCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	netTruth, err := nw.ExactCount(q.L, q.U)
	if err != nil {
		t.Fatal(err)
	}
	if netTruth != truth {
		t.Fatalf("network ground truth %d != series truth %d", netTruth, truth)
	}
	rc := estimator.RankCounting{P: p}
	est, err := rc.Estimate(nw.SampleSets(), q)
	if err != nil {
		t.Fatal(err)
	}
	// 6-sigma bound from Theorem 3.2's variance.
	sigma := math.Sqrt(rc.VarianceBound(nw.NumNodes()))
	if math.Abs(est-float64(truth)) > 6*sigma {
		t.Errorf("estimate %v too far from truth %d (6σ = %v)", est, truth, 6*sigma)
	}
}

func TestTopUpShipsOnlyNewSamples(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 4000, 9)
	nw, err := New(parts, Config{Seed: 11, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.1); err != nil {
		t.Fatal(err)
	}
	afterFirst := nw.Cost().SamplesShipped
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	afterSecond := nw.Cost().SamplesShipped
	// Total shipped across both rounds should be ~0.3·n, not 0.1n + 0.3n:
	// the top-up must not reship.
	n := float64(nw.TotalN())
	if rate := float64(afterSecond) / n; math.Abs(rate-0.3) > 0.03 {
		t.Errorf("total shipped rate %v, want ~0.3 (no reshipping)", rate)
	}
	if afterSecond <= afterFirst {
		t.Error("second round should ship additional samples")
	}
	// Base station must hold the union.
	held := 0
	for _, set := range nw.SampleSets() {
		held += len(set.Samples)
	}
	if held != afterSecond {
		t.Errorf("base station holds %d samples, shipped %d", held, afterSecond)
	}
}

func TestLoweringRateIsFree(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 2000, 13)
	nw, err := New(parts, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.4); err != nil {
		t.Fatal(err)
	}
	before := nw.Cost()
	if _, err := nw.EnsureRate(0.1); err != nil {
		t.Fatal(err)
	}
	if nw.Cost() != before {
		t.Error("lowering the rate should not transmit anything")
	}
	if nw.Rate() != 0.4 {
		t.Errorf("rate should remain 0.4, got %v", nw.Rate())
	}
}

func TestEnsureRateValidation(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 100, 15)
	nw, err := New(parts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(-0.1); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := nw.EnsureRate(1.1); err == nil {
		t.Error("rate > 1 should fail")
	}
	// NaN is the caller's error, not the links': it must fail before a
	// round runs and charges the nodes' transport with corruption.
	if rep, err := nw.EnsureRate(math.NaN()); err == nil || rep != nil {
		t.Errorf("NaN rate: report %v, err %v; want a validation error and no round", rep, err)
	}
	if cost := nw.Cost(); cost.Messages != 0 || cost.CorruptedMessages != 0 {
		t.Errorf("rejected rates still ran a round: %+v", cost)
	}
}

func TestTreeTopologyCostsMoreBytes(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 32, 16000, 17)
	flat, err := New(parts, Config{Seed: 19, Topology: Flat, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := New(parts, Config{Seed: 19, Topology: Tree, TreeFanout: 2, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	if flat.Cost().SamplesShipped != tree.Cost().SamplesShipped {
		t.Errorf("topology should not change which samples ship: %d vs %d",
			flat.Cost().SamplesShipped, tree.Cost().SamplesShipped)
	}
	if tree.Cost().Bytes <= flat.Cost().Bytes {
		t.Errorf("deep tree (fanout 2, 32 nodes) should cost more bytes: tree=%d flat=%d",
			tree.Cost().Bytes, flat.Cost().Bytes)
	}
}

func TestTreeHops(t *testing.T) {
	t.Parallel()
	nw := &Network{cfg: Config{Topology: Tree, TreeFanout: 2}}
	cases := []struct {
		id   int
		want int
	}{
		{id: 0, want: 1},
		{id: 1, want: 1},
		{id: 2, want: 2},  // parent = 2/2-1 = 0
		{id: 5, want: 2},  // parent = 5/2-1 = 1
		{id: 6, want: 3},  // parent = 2, grandparent = 0
		{id: 13, want: 3}, // 13 -> 5 -> 1 -> base
		{id: 14, want: 4}, // 14 -> 6 -> 2 -> 0 -> base
	}
	for _, tc := range cases {
		if got := nw.hops(tc.id); got != tc.want {
			t.Errorf("hops(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	flat := &Network{cfg: Config{Topology: Flat}}
	if got := flat.hops(99); got != 1 {
		t.Errorf("flat hops = %d, want 1", got)
	}
}

func TestPiggybackDiscount(t *testing.T) {
	t.Parallel()
	// Tiny per-node samples (≤16) should be free under the default
	// config, per the paper's heartbeat argument.
	parts, _ := buildParts(t, 4, 400, 21)
	nw, err := New(parts, Config{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.05); err != nil { // ~5 samples per node
		t.Fatal(err)
	}
	cost := nw.Cost()
	if cost.PiggybackedReports == 0 {
		t.Error("small reports should piggyback")
	}
	// Only the resample commands should have cost bytes.
	cmdSize, err := wire.EncodedSize(&wire.Resample{NodeID: 3, Rate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	maxExpected := int64(4 * (cmdSize + 2)) // command bytes only, small slack for id width
	if cost.Bytes > maxExpected {
		t.Errorf("bytes = %d, want only command traffic (≤ %d)", cost.Bytes, maxExpected)
	}
}

func TestHeartbeatRound(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 300, 25)
	nw, err := New(parts, Config{Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.HeartbeatRound(); err != nil {
		t.Fatal(err)
	}
	cost := nw.Cost()
	if cost.Messages != 3 {
		t.Errorf("messages = %d, want 3", cost.Messages)
	}
	if cost.Bytes == 0 {
		t.Error("heartbeats should bill baseline bytes")
	}
	if cost.SamplesShipped != 0 {
		t.Error("bare heartbeats carry no samples")
	}
}

func TestNodeStreamingObserveInvalidatesAndReplaces(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 500, 29)
	nw, err := New(parts, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	// New readings arrive at node 0.
	nw.nodes[0].Observe(500)
	nw.nodes[0].Observe(501)
	// Force re-collection at a higher rate; node 0 must replace, node 1
	// may top up — either way base-station state stays consistent.
	if _, err := nw.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	sets := nw.SampleSets()
	if sets[0].N != nw.nodes[0].Len() {
		t.Errorf("node 0 set N = %d, want %d", sets[0].N, nw.nodes[0].Len())
	}
	for i, set := range sets {
		if err := set.Validate(); err != nil {
			t.Errorf("set %d invalid after streaming insert: %v", i, err)
		}
	}
}

func TestNodeHandleResampleValidation(t *testing.T) {
	t.Parallel()
	node := NewNode(1, 1)
	node.Load([]float64{1, 2, 3})
	if _, err := node.HandleResample(nil); err == nil {
		t.Error("nil command should fail")
	}
	if _, err := node.HandleResample(&wire.Resample{NodeID: 2, Rate: 0.5}); err == nil {
		t.Error("misrouted command should fail")
	}
}

func TestBaseStationValidation(t *testing.T) {
	t.Parallel()
	base := NewBaseStation()
	if err := base.HandleReport(nil); err == nil {
		t.Error("nil report should fail")
	}
	if err := base.HandleHeartbeat(nil); err == nil {
		t.Error("nil heartbeat should fail")
	}
	// Incremental report for an unknown node is treated as initial state.
	rep := &wire.SampleReport{NodeID: 5, N: 10}
	if err := base.HandleReport(rep); err != nil {
		t.Fatal(err)
	}
	// Incremental with mismatched N must fail.
	bad := &wire.SampleReport{NodeID: 5, N: 11}
	if err := base.HandleReport(bad); err == nil {
		t.Error("incremental report with changed N should fail")
	}
	if base.Nodes() != 1 {
		t.Errorf("Nodes = %d, want 1", base.Nodes())
	}
}

func TestHeartbeatWithPiggybackMerges(t *testing.T) {
	t.Parallel()
	base := NewBaseStation()
	hb := &wire.Heartbeat{NodeID: 2, N: 100, Piggyback: []sampling.Sample{
		{Value: 7, Rank: 3}, {Value: 9, Rank: 50},
	}}
	if err := base.HandleHeartbeat(hb); err != nil {
		t.Fatal(err)
	}
	sets := base.SampleSets()
	if len(sets) != 1 || len(sets[0].Samples) != 2 || sets[0].N != 100 {
		t.Fatalf("piggyback not folded in: %+v", sets)
	}
}

func TestLossValidation(t *testing.T) {
	t.Parallel()
	if _, err := New([][]float64{{1}}, Config{LossRate: -0.1}); err == nil {
		t.Error("negative loss rate should fail")
	}
	if _, err := New([][]float64{{1}}, Config{LossRate: 1}); err == nil {
		t.Error("loss rate 1 should fail")
	}
	if _, err := New([][]float64{{1}}, Config{LossRate: math.NaN()}); err == nil {
		t.Error("NaN loss rate should fail")
	}
	if _, err := New([][]float64{{1}}, Config{MaxRetries: -1}); err == nil {
		t.Error("negative retries should fail")
	}
}

func TestLossyLinkRetransmitsAndConverges(t *testing.T) {
	t.Parallel()
	parts, series := buildParts(t, 6, 3000, 31)
	nw, err := New(parts, Config{Seed: 33, LossRate: 0.3, MaxRetries: 50, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	// With 50 retries at 30% loss, collection succeeds with overwhelming
	// probability; retry EnsureRate defensively anyway (the protocol is
	// idempotent: already-shipped samples are not reshipped).
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if _, lastErr = nw.EnsureRate(0.2); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("collection never converged: %v", lastErr)
	}
	cost := nw.Cost()
	if cost.Retransmissions == 0 {
		t.Error("30% loss should cause retransmissions")
	}
	// State must be complete and consistent.
	sets := nw.SampleSets()
	if len(sets) != 6 {
		t.Fatalf("only %d of 6 nodes reported", len(sets))
	}
	total := 0
	for _, set := range sets {
		if err := set.Validate(); err != nil {
			t.Fatalf("invalid set after lossy collection: %v", err)
		}
		total += len(set.Samples)
	}
	rate := float64(total) / float64(series.Len())
	if math.Abs(rate-0.2) > 0.04 {
		t.Errorf("collected rate %v, want ~0.2", rate)
	}
	// Lossy run must cost strictly more bytes than a lossless twin.
	clean, err := New(parts, Config{Seed: 33, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	if cost.Bytes <= clean.Cost().Bytes {
		t.Errorf("lossy bytes %d should exceed lossless %d", cost.Bytes, clean.Cost().Bytes)
	}
}

func TestTotalLossGivesUp(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 200, 35)
	nw, err := New(parts, Config{Seed: 37, LossRate: 0.95, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With 95% loss and one retry, failure is near-certain across the
	// whole protocol; assert the error path is exercised at least once
	// over several attempts.
	failed := false
	for attempt := 0; attempt < 10 && !failed; attempt++ {
		if _, err := nw.EnsureRate(0.5); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Error("expected at least one give-up under 95% loss")
	}
}

func TestReportLossNeverDropsSamples(t *testing.T) {
	t.Parallel()
	// Regression: a report lost in transit must be reshipped by the next
	// round — shipment bookkeeping only advances on acknowledgement. With
	// MaxRetries=1 and heavy loss, individual EnsureRate calls fail often;
	// retrying until success must still deliver the full target rate.
	parts, series := buildParts(t, 5, 2000, 41)
	nw, err := New(parts, Config{Seed: 43, LossRate: 0.5, MaxRetries: 1, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	succeeded := false
	for attempt := 0; attempt < 500; attempt++ {
		if _, err := nw.EnsureRate(0.3); err == nil {
			succeeded = true
			break
		}
	}
	if !succeeded {
		t.Fatal("collection never succeeded under loss")
	}
	held := 0
	for _, set := range nw.SampleSets() {
		if err := set.Validate(); err != nil {
			t.Fatalf("corrupt set after lossy retries: %v", err)
		}
		held += len(set.Samples)
	}
	rate := float64(held) / float64(series.Len())
	if math.Abs(rate-0.3) > 0.04 {
		t.Errorf("held rate %v, want ~0.3: samples were lost or duplicated", rate)
	}
}

func TestIngestMarksAndRefreshes(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 600, 45)
	nw, err := New(parts, Config{Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.4); err != nil {
		t.Fatal(err)
	}
	if err := nw.Ingest(9, []float64{1}); err == nil {
		t.Error("unknown node should fail")
	}
	if err := nw.Ingest(0, nil); err != nil {
		t.Errorf("empty ingest should be a no-op: %v", err)
	}
	before := nw.base.TotalN()
	if err := nw.Ingest(1, []float64{100, 101, 102}); err != nil {
		t.Fatal(err)
	}
	// Base station still serves the pre-ingest snapshot.
	if nw.base.TotalN() != before {
		t.Error("base station should be refreshed lazily")
	}
	// Re-collection at the *same* rate must pick the new data up.
	if _, err := nw.EnsureRate(0.4); err != nil {
		t.Fatal(err)
	}
	if got := nw.base.TotalN(); got != before+3 {
		t.Errorf("post-refresh TotalN = %d, want %d", got, before+3)
	}
	for _, set := range nw.SampleSets() {
		if err := set.Validate(); err != nil {
			t.Fatalf("invalid set after ingest refresh: %v", err)
		}
	}
}

func TestIngestRoundContinuousMonitoring(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 49, Records: 12000})
	if err != nil {
		t.Fatal(err)
	}
	const (
		k         = 6
		initial   = 3000
		roundSize = 900 // 150 per node per round
		rounds    = 10
		p         = 0.3
	)
	// Start with the first `initial` readings spread across nodes.
	head := &dataset.Series{Values: series.Values[:initial]}
	parts, err := head.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(parts, Config{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(p); err != nil {
		t.Fatal(err)
	}
	offset := initial
	q := estimator.Query{L: 40, U: 90}
	for round := 0; round < rounds; round++ {
		batch := series.Values[offset : offset+roundSize]
		perNode := make([][]float64, k)
		for i := range perNode {
			perNode[i] = batch[i*roundSize/k : (i+1)*roundSize/k]
		}
		if err := nw.IngestRound(perNode); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		offset += roundSize

		// The estimate must keep tracking the *growing* ground truth.
		truth, err := nw.ExactCount(q.L, q.U)
		if err != nil {
			t.Fatal(err)
		}
		rc := estimator.RankCounting{P: nw.Rate()}
		est, err := rc.Estimate(nw.SampleSets(), q)
		if err != nil {
			t.Fatal(err)
		}
		sigma := math.Sqrt(rc.VarianceBound(k))
		if math.Abs(est-float64(truth)) > 6*sigma {
			t.Fatalf("round %d: estimate %v vs truth %d exceeds 6σ=%v", round, est, truth, 6*sigma)
		}
	}
	if got, want := nw.TotalN(), initial+rounds*roundSize; got != want {
		t.Errorf("TotalN = %d, want %d", got, want)
	}
	if err := nw.IngestRound(make([][]float64, k+1)); err == nil {
		t.Error("wrong round width should fail")
	}
}

func TestSetDownValidation(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 200, 53)
	nw, err := New(parts, Config{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(5, true); err == nil {
		t.Error("unknown node should fail")
	}
	if err := nw.SetDown(-1, true); err == nil {
		t.Error("negative node should fail")
	}
	if err := nw.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(0, true); err != nil {
		t.Errorf("idempotent down should succeed: %v", err)
	}
	if nw.LiveNodes() != 1 {
		t.Errorf("LiveNodes = %d, want 1", nw.LiveNodes())
	}
	if c := nw.Coverage(); math.Abs(c-0.5) > 0.01 {
		t.Errorf("Coverage = %v, want ~0.5", c)
	}
}

func TestDownNodeServesStaleSamplesAndRecovers(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 4000, 57)
	nw, err := New(parts, Config{Seed: 59})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	// Node 2 partitions away, then keeps sensing.
	if err := nw.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	fresh := []float64{500, 501, 502, 503, 504}
	if err := nw.Ingest(2, fresh); err != nil {
		t.Fatal(err)
	}
	staleN := nw.SampleSets()[2].N
	// Re-collection skips the down node: its set stays stale, no error.
	if _, err := nw.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	if got := nw.SampleSets()[2].N; got != staleN {
		t.Errorf("down node's set should stay stale: N %d -> %d", staleN, got)
	}
	// The other nodes did reach the higher rate.
	liveSamples := len(nw.SampleSets()[0].Samples)
	if rate := float64(liveSamples) / float64(len(parts[0])); math.Abs(rate-0.5) > 0.06 {
		t.Errorf("live node rate %v, want ~0.5", rate)
	}
	// Recovery: the node comes back and the next round catches it up.
	if err := nw.SetDown(2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.5); err != nil {
		t.Fatal(err)
	}
	set := nw.SampleSets()[2]
	if set.N != len(parts[2])+len(fresh) {
		t.Errorf("recovered node set N = %d, want %d", set.N, len(parts[2])+len(fresh))
	}
	if err := set.Validate(); err != nil {
		t.Errorf("recovered set invalid: %v", err)
	}
	if nw.Coverage() != 1 {
		t.Errorf("Coverage = %v after recovery", nw.Coverage())
	}
}

func TestAllNodesDownStillAnswersFromStaleState(t *testing.T) {
	t.Parallel()
	parts, series := buildParts(t, 3, 3000, 61)
	nw, err := New(parts, Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := nw.SetDown(i, true); err != nil {
			t.Fatal(err)
		}
	}
	// EnsureRate with everything down is a no-op, not an error...
	if _, err := nw.EnsureRate(0.8); err != nil {
		t.Fatalf("collection with all nodes down should degrade, not fail: %v", err)
	}
	// ...and the stale samples still answer queries.
	rc := estimator.RankCounting{P: 0.4}
	truth, err := series.RangeCount(40, 90)
	if err != nil {
		t.Fatal(err)
	}
	est, err := rc.Estimate(nw.SampleSets(), estimator.Query{L: 40, U: 90})
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(rc.VarianceBound(3))
	if math.Abs(est-float64(truth)) > 6*sigma {
		t.Errorf("stale answer %v too far from truth %d", est, truth)
	}
	if nw.Coverage() != 0 {
		t.Errorf("Coverage = %v, want 0", nw.Coverage())
	}
}

func TestAddNodeJoinsDeployment(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 3000, 65)
	nw, err := New(parts, Config{Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode(nil); err == nil {
		t.Error("joining without data should fail")
	}
	// A NaN reading has no rank: the join is refused and adds no node.
	if _, err := nw.AddNode([]float64{1, math.NaN(), 3}); err == nil {
		t.Error("joining with a NaN reading should fail")
	}
	if nw.NumNodes() != 3 {
		t.Fatalf("refused joins left %d nodes, want 3", nw.NumNodes())
	}
	newData := make([]float64, 800)
	for i := range newData {
		newData[i] = float64(50 + i%40)
	}
	id, err := nw.AddNode(newData)
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 || nw.NumNodes() != 4 {
		t.Fatalf("id=%d nodes=%d", id, nw.NumNodes())
	}
	// Until collected, the network cannot claim any rate guarantee.
	if nw.Rate() != 0 {
		t.Errorf("rate should be 0 with an uncollected member, got %v", nw.Rate())
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(nw.Rate()-0.3) > 1e-12 {
		t.Errorf("rate = %v after catch-up, want 0.3", nw.Rate())
	}
	sets := nw.SampleSets()
	if len(sets) != 4 {
		t.Fatalf("sets = %d", len(sets))
	}
	if sets[3].N != len(newData) {
		t.Errorf("new node set N = %d, want %d", sets[3].N, len(newData))
	}
	// Estimates over the grown deployment track the grown truth.
	truth, err := nw.ExactCount(50, 90)
	if err != nil {
		t.Fatal(err)
	}
	rc := estimator.RankCounting{P: nw.Rate()}
	est, err := rc.Estimate(sets, estimator.Query{L: 50, U: 90})
	if err != nil {
		t.Fatal(err)
	}
	sigma := math.Sqrt(rc.VarianceBound(4))
	if math.Abs(est-float64(truth)) > 6*sigma {
		t.Errorf("estimate %v vs truth %d beyond 6σ", est, truth)
	}
}

func TestTransmitGiveUpBillsEveryAttempt(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 1, 50, 53)
	rep := &wire.SampleReport{NodeID: 0, N: 3, Replace: true, Samples: []sampling.Sample{
		{Value: 1, Rank: 1}, {Value: 2, Rank: 2},
	}}
	data, err := wire.Encode(rep)
	if err != nil {
		t.Fatal(err)
	}
	// Each way of giving up must bill all 1 + MaxRetries attempts: a
	// LossRate so close to 1 that every attempt drops, and a node inside
	// a scheduled crash window, which swallows every attempt.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"loss", Config{Seed: 59, LossRate: 0.999999, MaxRetries: 2, FreeHeartbeatSamples: -1}},
		{"crash", Config{Seed: 59, MaxRetries: 2, FreeHeartbeatSamples: -1,
			Faults: map[int]FaultProfile{0: {CrashWindows: []CrashWindow{{From: 0, Until: 1}}}}}},
	} {
		nw, err := New(parts, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.transmit(0, rep); err == nil {
			t.Fatalf("%s: expected give-up", tc.name)
		}
		cost := nw.Cost()
		// All 3 attempts (1 + MaxRetries) crossed the link and cost bytes...
		if want := int64(len(data)) * 3; cost.Bytes != want {
			t.Errorf("%s: bytes = %d, want %d (every attempt billed)", tc.name, cost.Bytes, want)
		}
		if cost.Retransmissions != 2 {
			t.Errorf("%s: retransmissions = %d, want 2", tc.name, cost.Retransmissions)
		}
		// ...but nothing arrived end to end: no message, no shipped samples.
		if cost.Messages != 0 {
			t.Errorf("%s: messages = %d, want 0 for an undelivered message", tc.name, cost.Messages)
		}
		if cost.SamplesShipped != 0 {
			t.Errorf("%s: samples shipped = %d, want 0 for an undelivered report", tc.name, cost.SamplesShipped)
		}
		if cost.PiggybackedReports != 0 {
			t.Errorf("%s: piggybacked = %d, want 0", tc.name, cost.PiggybackedReports)
		}
	}
	// A lossless twin delivers the same message and bills it exactly once.
	clean, err := New(parts, Config{Seed: 59, FreeHeartbeatSamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.transmit(0, rep); err != nil {
		t.Fatal(err)
	}
	got := clean.Cost()
	if got.Bytes != int64(len(data)) || got.Messages != 1 || got.SamplesShipped != 2 || got.Retransmissions != 0 {
		t.Errorf("lossless bill = %+v, want 1 message, %d bytes, 2 samples", got, len(data))
	}
}

// TestReusedEncodeBufferNeverLeaks drives the network's one encode
// buffer through a clean node, a node whose link corrupts half its
// attempts, and heartbeats carrying piggybacked samples, over two
// collection rounds. No delivered message may alias the buffer: the
// sets the base station stored after round 1 read the same after the
// buffer is scribbled over and round 2 re-encodes into it. And the bill
// stays exact: Bytes is the sum over messages of encoded size × hops ×
// attempts.
func TestReusedEncodeBufferNeverLeaks(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 2, 800, 71)
	// A chain (fanout 1) puts node 1, the corrupting one, two hops out.
	nw, err := New(parts, Config{Seed: 73, Topology: Tree, TreeFanout: 1, MaxRetries: 30,
		FreeHeartbeatSamples: -1, Faults: map[int]FaultProfile{1: {CorruptRate: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if nw.hops(1) != 2 {
		t.Fatalf("node 1 is %d hops out, want 2", nw.hops(1))
	}
	var wantBytes int64
	// send transmits m and adds its bill: encoded size × hops × the
	// attempts this transmission took.
	send := func(id int, m wire.Message) wire.Message {
		t.Helper()
		size, err := wire.EncodedSize(m)
		if err != nil {
			t.Fatal(err)
		}
		retries := nw.cost.Retransmissions
		got, err := nw.transmit(id, m)
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		wantBytes += int64(size * nw.hops(id) * (1 + nw.cost.Retransmissions - retries))
		return got
	}
	// round runs collectNode's resample → report exchange with every
	// node, then ships node 0's top-up at the higher rate as a heartbeat
	// piggyback.
	round := func(rate, topUp float64) {
		t.Helper()
		for _, node := range nw.nodes {
			cmd := send(node.ID(), &wire.Resample{NodeID: node.ID(), Rate: rate}).(*wire.Resample)
			report, err := node.HandleResample(cmd)
			if err != nil {
				t.Fatal(err)
			}
			if err := nw.base.HandleReport(send(node.ID(), report).(*wire.SampleReport)); err != nil {
				t.Fatal(err)
			}
			node.AckReport()
		}
		node := nw.nodes[0]
		report, err := node.HandleResample(&wire.Resample{NodeID: 0, Rate: topUp})
		if err != nil {
			t.Fatal(err)
		}
		if report.Replace || len(report.Samples) == 0 {
			t.Fatalf("want a non-empty top-up to piggyback, got %+v", report)
		}
		hb := &wire.Heartbeat{NodeID: 0, N: report.N, Piggyback: report.Samples}
		if err := nw.base.HandleHeartbeat(send(0, hb).(*wire.Heartbeat)); err != nil {
			t.Fatal(err)
		}
		node.AckReport()
	}

	// scribble overwrites every byte the buffer has ever held.
	scribble := func() {
		buf := nw.wireBuf[:cap(nw.wireBuf)]
		for i := range buf {
			buf[i] = 0xff
		}
	}

	round(0.5, 0.6)
	stored := nw.base.SampleSets()
	copies := make([][]sampling.Sample, len(stored))
	for i, set := range stored {
		copies[i] = append([]sampling.Sample(nil), set.Samples...)
	}
	scribble()
	// New readings on both nodes make round 2 redraw. At the lower rate
	// its reports are smaller than round 1's, so they fit in the buffer
	// with room to spare.
	for _, node := range nw.nodes {
		node.Load(parts[node.ID()][:100])
	}
	round(0.2, 0.35)
	scribble()

	for i, set := range stored {
		if !reflect.DeepEqual(set.Samples, copies[i]) {
			t.Errorf("node %d: a set stored after round 1 changed after round 2", i)
		}
	}
	for i, set := range nw.base.SampleSets() {
		if set == stored[i] {
			t.Errorf("node %d: round 2 stored no new set", i)
		}
		if !reflect.DeepEqual(set.Samples, nw.nodes[i].shipped) {
			t.Errorf("node %d: base station holds %d samples, node shipped %d",
				i, len(set.Samples), len(nw.nodes[i].shipped))
		}
	}
	cost := nw.Cost()
	if cost.CorruptedMessages == 0 {
		t.Error("node 1's link corrupted no attempt; the corrupt path went untested")
	}
	if cost.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d (encoded size × hops × attempts)", cost.Bytes, wantBytes)
	}
}

func TestStateVersionBumpsOnAcceptedReports(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 3, 600, 61)
	nw, err := New(parts, Config{Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if nw.StateVersion() != 0 {
		t.Fatalf("fresh network version = %d, want 0", nw.StateVersion())
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	v1 := nw.StateVersion()
	if v1 == 0 {
		t.Fatal("collection must bump the sample-state version")
	}
	// Re-ensuring an already-satisfied rate touches nothing.
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	if nw.StateVersion() != v1 {
		t.Errorf("idle EnsureRate moved version %d -> %d", v1, nw.StateVersion())
	}
	// A recovered node re-reports, moving the version even at the same
	// (n, rate).
	if err := nw.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if err := nw.Ingest(1, []float64{50, 51}); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	if nw.StateVersion() == v1 {
		t.Error("recovery refresh must move the sample-state version")
	}
}

// TestIndexInvalidatedByDirectBaseMutation pins the staleness guard:
// Snapshot never serves an index older than the samples. Sample state
// rewritten at the base station outside a collection round makes the
// next Snapshot build a new index, equal to index.Build over the
// current sets.
func TestIndexInvalidatedByDirectBaseMutation(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 2000, 13)
	nw, err := New(parts, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.3); err != nil {
		t.Fatal(err)
	}
	_, before, _, _, _, _, _ := nw.Snapshot()
	if before == nil {
		t.Fatal("expected an index after collection")
	}
	// Rewrite node 0's stored sample directly, dropping its last sample:
	// the version moves, so the old index is stale.
	sets := nw.SampleSets()
	rep := &wire.SampleReport{NodeID: 0, N: sets[0].N, Replace: true, Samples: sets[0].Samples[:len(sets[0].Samples)-1]}
	nw.mu.Lock()
	err = nw.base.HandleReport(rep)
	nw.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	sets, idx, _, _, _, _, _ := nw.Snapshot()
	if idx == nil || idx == before {
		t.Fatal("stale index served after direct base-station mutation")
	}
	want, err := index.Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, want) {
		t.Error("snapshot index differs from index.Build over the current sets")
	}
	if idx.Samples() != before.Samples()-1 {
		t.Errorf("index holds %d samples, want %d", idx.Samples(), before.Samples()-1)
	}
	// Reads at an unchanged state reuse the index.
	if _, again, _, _, _, _, _ := nw.Snapshot(); again != idx {
		t.Error("second snapshot at the same state rebuilt the index")
	}
}

// TestRoundsBuildNoIndexUntilRead pins the lazy build: collection and
// heartbeat rounds leave the index unbuilt until a Snapshot reads it,
// and reads through State (a sharded cluster's only read) never build.
func TestRoundsBuildNoIndexUntilRead(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 2000, 17)
	nw, err := New(parts, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	if err := nw.IngestRound([][]float64{{1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.HeartbeatRound(); err != nil {
		t.Fatal(err)
	}
	_ = nw.State()
	if nw.Indexed() {
		t.Fatal("rounds and State built an index nobody read")
	}
	if _, idx, _, _, _, _, _ := nw.Snapshot(); idx == nil || !nw.Indexed() {
		t.Fatal("Snapshot served no index")
	}
}

// TestConcurrentSnapshotsServeFreshIndexes races readers, which build
// the index on first read, against each other and against ingest
// rounds: every snapshot's index equals index.Build over that
// snapshot's own sets.
func TestConcurrentSnapshotsServeFreshIndexes(t *testing.T) {
	t.Parallel()
	parts, _ := buildParts(t, 4, 2000, 19)
	nw, err := New(parts, Config{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 20; r++ {
			if err := nw.IngestRound([][]float64{{float64(r)}, {1}, {2}, {3}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				sets, idx, _, _, _, _, _ := nw.Snapshot()
				want, err := index.Build(sets)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(idx, want) {
					t.Error("snapshot index differs from index.Build over its own sets")
					return
				}
			}
		}()
	}
	wg.Wait()
}
