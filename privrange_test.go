package privrange

import (
	"errors"
	"math"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/market"
)

func testSeries(t *testing.T, seed int64) *dataset.Series {
	t.Helper()
	s, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSystem(nil, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := NewSystem([]float64{1, 2}, Options{Nodes: 3}); err == nil {
		t.Error("more nodes than values should fail")
	}
	if _, err := NewSystem([]float64{1, 2}, Options{Nodes: -1}); err == nil {
		t.Error("negative nodes should fail")
	}
	if _, err := NewSystem([]float64{1, 2}, Options{Nodes: 2, TotalBudget: -1}); err == nil {
		t.Error("negative budget should fail")
	}
}

func TestSystemCount(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 1)
	sys, err := NewSystem(series.Values, Options{Nodes: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sys.N() != series.Len() || sys.Nodes() != 12 {
		t.Fatalf("system shape wrong: n=%d k=%d", sys.N(), sys.Nodes())
	}
	acc := Accuracy{Alpha: 0.05, Delta: 0.8}
	ans, err := sys.Count(40, 120, acc)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := series.RangeCount(40, 120)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Value-float64(truth)) > 3*acc.Alpha*float64(series.Len()) {
		t.Errorf("answer %v wildly off truth %d", ans.Value, truth)
	}
	if ans.Clamped < 0 || ans.Clamped > float64(ans.N) {
		t.Errorf("Clamped %v out of range", ans.Clamped)
	}
	if ans.EpsilonPrime <= 0 || ans.EpsilonPrime > ans.Epsilon {
		t.Errorf("budgets inconsistent: %+v", ans)
	}
	if ans.AlphaPrime >= acc.Alpha || ans.DeltaPrime <= acc.Delta {
		t.Errorf("internal split not strictly tighter: %+v", ans)
	}
	if sys.SamplingRate() <= 0 {
		t.Error("count should have triggered collection")
	}
	if sys.SpentBudget() != ans.EpsilonPrime {
		t.Errorf("spent %v, want %v", sys.SpentBudget(), ans.EpsilonPrime)
	}
	cost := sys.Cost()
	if cost.SamplesShipped == 0 || cost.Messages == 0 {
		t.Errorf("cost not accounted: %+v", cost)
	}
}

func TestSystemBudgetCap(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 2)
	sys, err := NewSystem(series.Values, Options{Nodes: 8, Seed: 3, TotalBudget: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Count(0, 100, Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("exhausted budget should fail")
	}
}

// TestCountBatchReturnsChargedAnswers pins that a batch cut short by
// the budget cap still hands back every answer it charged for: the
// answers released before the failing range, with that range's error.
func TestCountBatchReturnsChargedAnswers(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 2)
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	ranges := []Range{{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}}
	// Learn the per-answer cost on an uncapped twin.
	probe, err := NewSystem(series.Values, Options{Nodes: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	one, err := probe.Count(ranges[0].L, ranges[0].U, acc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(series.Values, Options{Nodes: 8, Seed: 3, TotalBudget: 2.5 * one.EpsilonPrime})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := sys.CountBatch(ranges, acc)
	if err == nil {
		t.Fatal("batch past the budget cap should fail")
	}
	if len(answers) != 2 {
		t.Fatalf("got %d answers, want the 2 the cap affords", len(answers))
	}
	if got, want := sys.SpentBudget(), answers[0].EpsilonPrime+answers[1].EpsilonPrime; got != want {
		t.Errorf("spent %v, want the returned answers' ε′ sum %v", got, want)
	}
}

func TestSystemInfeasibleAccuracy(t *testing.T) {
	t.Parallel()
	values := testSeries(t, 3).Values[:1000]
	sys, err := NewSystem(values, Options{Nodes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Any accuracy is feasible at p = 1, so the first answer collects at
	// its own rate and node 0 then goes down: its stale sample caps the
	// guaranteed rate below the ~0.93 that α = 0.01 needs.
	if _, err := sys.Count(0, 100, Accuracy{Alpha: 0.1, Delta: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetNodeDown(0, true); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Count(0, 100, Accuracy{Alpha: 0.01, Delta: 0.9})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	answers, err := sys.CountBatch([]Range{{L: 0, U: 100}, {L: 50, U: 200}}, Accuracy{Alpha: 0.01, Delta: 0.9})
	if !errors.Is(err, ErrInfeasible) || len(answers) != 0 {
		t.Fatalf("CountBatch = %d answers, err %v; want none and ErrInfeasible", len(answers), err)
	}
}

func TestSystemBadInputs(t *testing.T) {
	t.Parallel()
	sys, err := NewSystem(testSeries(t, 4).Values, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Count(10, 5, Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("l > u should fail")
	}
	if _, err := sys.Count(0, 1, Accuracy{Alpha: 2, Delta: 0.5}); err == nil {
		t.Error("bad accuracy should fail")
	}
	if err := (Accuracy{Alpha: 0.5, Delta: 0.5}).Validate(); err != nil {
		t.Errorf("valid accuracy rejected: %v", err)
	}
}

func TestSystemTreeTopology(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 5)
	flat, err := NewSystem(series.Values, Options{Nodes: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NewSystem(series.Values, Options{Nodes: 32, Seed: 7, Tree: true})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	if _, err := flat.Count(0, 100, acc); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Count(0, 100, acc); err != nil {
		t.Fatal(err)
	}
	if tree.Cost().Bytes <= flat.Cost().Bytes {
		t.Errorf("tree routing should cost more bytes: %d vs %d", tree.Cost().Bytes, flat.Cost().Bytes)
	}
}

func TestMarketplaceEndToEnd(t *testing.T) {
	t.Parallel()
	mp, err := NewMarketplace(Tariff{Base: 1, C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, 6)
	if err := mp.AddDataset("ozone", series.Values, Options{Nodes: 10, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.08, Delta: 0.6}
	quote, err := mp.Quote("ozone", acc)
	if err != nil {
		t.Fatal(err)
	}
	if quote.Price <= 0 || quote.Variance <= 0 {
		t.Fatalf("bad quote %+v", quote)
	}
	res, err := mp.Buy("alice", "ozone", 40, 100, acc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Price-quote.Price) > 1e-9 {
		t.Errorf("charged %v, quoted %v", res.Price, quote.Price)
	}
	if res.ReceiptID == 0 || res.EpsilonPrime <= 0 {
		t.Errorf("missing sale metadata: %+v", res)
	}
	if mp.Purchases() != 1 {
		t.Errorf("purchases = %d", mp.Purchases())
	}
	if math.Abs(mp.Revenue()-res.Price) > 1e-12 {
		t.Errorf("revenue = %v", mp.Revenue())
	}
	if math.Abs(mp.SpentBy("alice")-res.Price) > 1e-12 {
		t.Errorf("alice spend = %v", mp.SpentBy("alice"))
	}
}

func TestMarketplaceValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewMarketplace(Tariff{C: 0}); err == nil {
		t.Error("C=0 should fail")
	}
	if _, err := NewMarketplace(Tariff{Base: -1, C: 1}); err == nil {
		t.Error("negative base should fail")
	}
	mp, err := NewMarketplace(Tariff{C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.AddDataset("x", nil, Options{}); err == nil {
		t.Error("empty dataset should fail")
	}
	if err := mp.AddDataset("x", []float64{1}, Options{Nodes: 5}); err == nil {
		t.Error("nodes > len should fail")
	}
	if _, err := mp.Quote("missing", Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestMarketplaceServe(t *testing.T) {
	t.Parallel()
	mp, err := NewMarketplace(Tariff{Base: 0.5, C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, 8)
	if err := mp.AddDataset("ozone", series.Values, Options{Nodes: 8, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	srv, err := mp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := market.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.Buy(market.Request{
		Dataset: "ozone", Customer: "remote", L: 30, U: 90, Alpha: 0.1, Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Receipt == nil {
		t.Fatal("remote buy missing receipt")
	}
	if mp.Purchases() != 1 {
		t.Error("remote sale should hit the ledger")
	}
}

func TestSystemDeterminism(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 12)
	run := func() float64 {
		sys, err := NewSystem(series.Values, Options{Nodes: 8, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		ans, err := sys.Count(20, 80, Accuracy{Alpha: 0.1, Delta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return ans.Value
	}
	if run() != run() {
		t.Error("same options should reproduce answers exactly")
	}
}

func TestMarketplacePrepaidAndAudit(t *testing.T) {
	t.Parallel()
	mp, err := NewMarketplace(Tariff{Base: 1, C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	series := testSeries(t, 30)
	if err := mp.AddDataset("ozone", series.Values, Options{Nodes: 8, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	// Invoice mode: deposits rejected, audit clean.
	if err := mp.Deposit("alice", 10); err == nil {
		t.Error("deposit should fail before EnablePrepaid")
	}
	mp.EnablePrepaid()
	mp.EnablePrepaid() // idempotent
	quote, err := mp.Quote("ozone", acc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Buy("alice", "ozone", 30, 90, acc); err == nil {
		t.Fatal("unfunded prepaid buy should fail")
	}
	if err := mp.Deposit("alice", quote.Price*3.2); err != nil {
		t.Fatal(err)
	}
	var privacy float64
	for i := 0; i < 3; i++ {
		res, err := mp.Buy("alice", "ozone", 30, 90, acc)
		if err != nil {
			t.Fatal(err)
		}
		privacy += res.EpsilonPrime
	}
	if bal := mp.Balance("alice"); math.Abs(bal-quote.Price*0.2) > 1e-9 {
		t.Errorf("balance = %v, want %v", bal, quote.Price*0.2)
	}
	if _, err := mp.Buy("alice", "ozone", 30, 90, acc); err == nil {
		t.Error("drained wallet should block")
	}
	// Alice repeated the same purchase 3x: the audit flags it.
	sus := mp.Audit()
	if len(sus) != 1 || sus[0].Customer != "alice" || sus[0].Purchases != 3 {
		t.Errorf("audit = %+v", sus)
	}
	if got := mp.PrivacySpent("ozone"); math.Abs(got-privacy) > 1e-12 {
		t.Errorf("PrivacySpent = %v, want %v", got, privacy)
	}
}

func TestSystemIngest(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 40)
	head := series.Values[:10000]
	tail := series.Values[10000:]
	sys, err := NewSystem(head, Options{Nodes: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.08, Delta: 0.6}
	if _, err := sys.Count(40, 120, acc); err != nil {
		t.Fatal(err)
	}
	if err := sys.Ingest(nil); err != nil {
		t.Errorf("empty ingest: %v", err)
	}
	if err := sys.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	if sys.N() != series.Len() {
		t.Fatalf("N = %d, want %d after ingest", sys.N(), series.Len())
	}
	ans, err := sys.Count(40, 120, acc)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := series.RangeCount(40, 120)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Value-float64(truth)) > 3*acc.Alpha*float64(series.Len()) {
		t.Errorf("post-ingest answer %v wildly off truth %d", ans.Value, truth)
	}
}

// TestNaNReadingsRefused: a NaN reading is refused before any node
// stores it, at construction and at ingest, single-broker and sharded.
// A refused ingest leaves N unchanged and the deployment answering bit
// for bit like a same-seed twin that never saw the round.
func TestNaNReadingsRefused(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 42)
	head := series.Values[:8000]
	acc := Accuracy{Alpha: 0.08, Delta: 0.6}
	for _, shards := range []int{1, 4} {
		opt := Options{Nodes: 16, Shards: shards, Seed: 43}
		bad := append(append([]float64(nil), head...), math.NaN())
		if _, err := NewSystem(bad, opt); err == nil {
			t.Fatalf("S=%d: NewSystem accepted a NaN reading", shards)
		}
		sys, err := NewSystem(head, opt)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewSystem(head, opt)
		if err != nil {
			t.Fatal(err)
		}
		count := func(s *System) *Answer {
			t.Helper()
			ans, err := s.Count(40, 120, acc)
			if err != nil {
				t.Fatal(err)
			}
			return ans
		}
		count(sys)
		count(twin)
		n := sys.N()
		round := append([]float64(nil), series.Values[8000:8288]...)
		round[100] = math.NaN()
		if err := sys.Ingest(round); err == nil {
			t.Fatalf("S=%d: Ingest accepted a NaN reading", shards)
		}
		if sys.N() != n {
			t.Fatalf("S=%d: N = %d after a refused ingest, want %d", shards, sys.N(), n)
		}
		got, want := count(sys), count(twin)
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.EpsilonPrime != want.EpsilonPrime ||
			got.SamplingRate != want.SamplingRate || got.CollectionVersion != want.CollectionVersion {
			t.Fatalf("S=%d: after a refused ingest %+v, twin %+v", shards, got, want)
		}
	}
}

func TestSystemCacheAnswers(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 50)
	sys, err := NewSystem(series.Values, Options{Nodes: 8, Seed: 51, CacheAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	a, err := sys.Count(30, 90, acc)
	if err != nil {
		t.Fatal(err)
	}
	spent := sys.SpentBudget()
	b, err := sys.Count(30, 90, acc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Error("cached repeat should return the identical answer")
	}
	if sys.SpentBudget() != spent {
		t.Error("cached repeat must not spend budget")
	}
}
