package privrange_test

// The all-features integration scenario: every production feature of the
// trading stack exercised together against a real TCP endpoint —
// prepaid accounts, answer caching, per-customer privacy caps, the
// averaging adversary, ledger audit, and durable books recovered from
// the WAL directory across a broker restart.

import (
	"math"
	"testing"

	"privrange"
	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/market"
	"privrange/internal/pricing"
)

func TestFullScenarioIntegration(t *testing.T) {
	t.Parallel()
	table, err := dataset.Generate(dataset.GenerateConfig{Seed: 7, Records: 8000})
	if err != nil {
		t.Fatal(err)
	}

	// build opens the marketplace on the WAL directory dir, recovering
	// whatever books a previous incarnation left there: wallets first
	// (recovered balances need them), then durability, then datasets.
	build := func(dir string) *privrange.Marketplace {
		mp, err := privrange.NewMarketplace(privrange.Tariff{Base: 2, C: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		mp.EnablePrepaid()
		if err := mp.EnableDurability(dir); err != nil {
			t.Fatal(err)
		}
		for _, p := range []dataset.Pollutant{dataset.Ozone, dataset.ParticulateMatter} {
			series, err := table.Series(p)
			if err != nil {
				t.Fatal(err)
			}
			opts := privrange.Options{Nodes: 8, Seed: int64(p), CacheAnswers: true}
			if err := mp.AddDataset(p.String(), series.Values, opts); err != nil {
				t.Fatal(err)
			}
		}
		return mp
	}
	walDir := t.TempDir()
	mp := build(walDir)
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

	// Catalog lists both datasets.
	cat, err := client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 2 {
		t.Fatalf("catalog = %+v", cat)
	}

	// Fund alice; buy the same answer twice — the cache returns the same
	// value and the ledger still records two sales (she paid twice; the
	// broker released once).
	price, _, err := client.Quote("ozone", 0.1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Deposit("alice", price*10); err != nil {
		t.Fatal(err)
	}
	req := market.Request{Dataset: "ozone", Customer: "alice", L: 40, U: 90, Alpha: 0.1, Delta: 0.6}
	first, err := client.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Value != second.Value {
		t.Error("caching broker should re-serve the identical released answer")
	}
	if mp.Purchases() != 2 {
		t.Errorf("purchases = %d, want 2", mp.Purchases())
	}

	// The adversary attacks the safe tariff over TCP and fails.
	advClient, err := market.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer advClient.Close()
	if _, err := advClient.Deposit("mallory", 1e9); err != nil {
		t.Fatal(err)
	}
	mallory := market.ArbitrageConsumer{
		Name:   "mallory",
		Market: market.RemoteMarket{Client: advClient},
		Menu:   pricing.DefaultMenu(),
	}
	attack, err := mallory.Buy("particulate_matter", 60, 160, estimator.Accuracy{Alpha: 0.05, Delta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if attack.Arbitrage {
		t.Errorf("audited tariff beaten: saved %v", attack.Savings())
	}

	// Ledger analytics see alice's repeat purchases (cache or not, she
	// bought the same thing twice).
	sus := mp.Audit()
	for _, s := range sus {
		if s.Customer == "mallory" {
			t.Errorf("mallory bought once, should not be flagged: %+v", s)
		}
	}
	if got := mp.PrivacySpent("ozone"); got <= 0 {
		t.Error("ozone privacy ledger empty")
	}

	// Shut the books down cleanly, rebuild the marketplace (fresh
	// engines) on the same WAL directory, and verify money, history and
	// released ε survived the restart.
	if err := mp.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	restored := build(walDir)
	defer restored.CloseDurability()
	if restored.Purchases() != mp.Purchases() {
		t.Errorf("restored purchases = %d, want %d", restored.Purchases(), mp.Purchases())
	}
	if math.Abs(restored.Revenue()-mp.Revenue()) > 1e-9 {
		t.Errorf("restored revenue = %v, want %v", restored.Revenue(), mp.Revenue())
	}
	if math.Abs(restored.Balance("alice")-mp.Balance("alice")) > 1e-9 {
		t.Errorf("restored balance = %v, want %v", restored.Balance("alice"), mp.Balance("alice"))
	}
	if got, want := restored.PrivacySpent("ozone"), mp.PrivacySpent("ozone"); got != want {
		t.Errorf("restored ozone privacy ledger = %v, want %v", got, want)
	}
	// And the restored broker keeps trading.
	if _, err := restored.Buy("alice", "ozone", 40, 90, privrange.Accuracy{Alpha: 0.1, Delta: 0.6}); err != nil {
		t.Fatalf("restored broker cannot sell: %v", err)
	}
}

func TestBatchThroughFacade(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 9, Records: 8000})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := privrange.NewSystem(series.Values, privrange.Options{Nodes: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	acc := privrange.Accuracy{Alpha: 0.08, Delta: 0.6}
	ranges := []privrange.Range{{L: 0, U: 50}, {L: 50, U: 100}, {L: 100, U: 300}}
	answers, err := sys.CountBatch(ranges, acc)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(ranges) {
		t.Fatalf("answers = %d", len(answers))
	}
	wantSpend := answers[0].EpsilonPrime * float64(len(ranges))
	if got := sys.SpentBudget(); math.Abs(got-wantSpend) > 1e-12 {
		t.Errorf("batch spend = %v, want %v", got, wantSpend)
	}
	for i, ans := range answers {
		truth, err := series.RangeCount(ranges[i].L, ranges[i].U)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ans.Value-float64(truth)) > 3*acc.Alpha*float64(series.Len()) {
			t.Errorf("answer %d: %v wildly off %d", i, ans.Value, truth)
		}
	}
	if _, err := sys.CountBatch(nil, acc); err == nil {
		t.Error("empty batch should fail")
	}
}
