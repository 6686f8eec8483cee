package market

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/pricing"
)

// TestRecoverLegacyStateFile: the shutdown file older releases wrote
// with `privranged -state` is a Snapshot without last_seq. Copied into
// a WAL directory as snapshot.json it recovers purchases, revenue and
// balances, and new sales continue the receipt sequence.
func TestRecoverLegacyStateFile(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	var w Wallets
	broker.AttachWallets(&w)
	if err := broker.Deposit("alice", 1e6); err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	for i := 0; i < 3; i++ {
		if _, err := broker.Buy(req); err != nil {
			t.Fatal(err)
		}
	}
	legacy, err := json.MarshalIndent(stateOf(t, broker), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(legacy, []byte("last_seq")) {
		t.Fatalf("a broker that never journaled wrote last_seq: %s", legacy)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh broker (same datasets, fresh engines) recovers the books.
	fresh, err := NewBroker(pricing.InverseVariance{C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.Ozone, 10, 99)
	if err := fresh.Register("ozone", eng, series.Len(), 10); err != nil {
		t.Fatal(err)
	}
	var fw Wallets
	fresh.AttachWallets(&fw)
	if err := fresh.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	defer fresh.CloseDurability()
	if fresh.Ledger().Purchases() != 3 {
		t.Errorf("recovered purchases = %d, want 3", fresh.Ledger().Purchases())
	}
	if got, want := fresh.Ledger().Revenue(), broker.Ledger().Revenue(); math.Abs(got-want) > 1e-9 {
		t.Errorf("recovered revenue = %v, want %v", got, want)
	}
	if got, want := fw.Balance("alice"), w.Balance("alice"); math.Abs(got-want) > 1e-9 {
		t.Errorf("recovered balance = %v, want %v", got, want)
	}
	// New sales continue the id sequence without collisions.
	resp, err := fresh.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Receipt.ID != 4 {
		t.Errorf("next receipt id = %d, want 4", resp.Receipt.ID)
	}
}

// refuseSnapshot writes doc as a WAL directory's snapshot.json and
// requires EnableDurability to refuse it; wallets selects prepaid mode.
func refuseSnapshot(t *testing.T, doc string, wallets bool) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	if wallets {
		broker.AttachWallets(&Wallets{})
	}
	if err := broker.EnableDurability(dir); err == nil {
		broker.CloseDurability()
		t.Errorf("recovery accepted corrupt snapshot %s", doc)
	}
}

// TestRecoverRejectsCorruptSnapshot: a snapshot.json that does not
// parse, carries balances no wallet can hold, or breaks the receipt id
// rules is refused at boot rather than recovered.
func TestRecoverRejectsCorruptSnapshot(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		doc     string
		wallets bool
	}{
		{"garbage", "not json", true},
		{"balances without wallets", `{"receipts":[],"next_id":0,"balances":{"alice":5}}`, false},
		{"receipt id 0", `{"receipts":[{"id":0}],"next_id":1}`, true},
		{"id beyond next_id", `{"receipts":[{"id":5}],"next_id":1}`, true},
		{"duplicate ids", `{"receipts":[{"id":1},{"id":1}],"next_id":2}`, true},
		{"anonymous balance", `{"receipts":[],"next_id":0,"balances":{"":5}}`, true},
		{"negative balance", `{"receipts":[],"next_id":0,"balances":{"alice":-5}}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { refuseSnapshot(t, tc.doc, tc.wallets) })
	}
}

// TestRestoreRejectsNonFiniteNumbers: NaN slips past every `< 0` guard
// and ±Inf poisons every downstream sum, so a snapshot.json with
// negative money or ε must be refused at recovery, and the restore
// layer must refuse non-finite values however they arrive.
func TestRestoreRejectsNonFiniteNumbers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		json string
	}{
		{"negative price", `{"receipts":[{"id":1,"price":-1,"epsilon_prime":0.1,"variance":1}],"next_id":1}`},
		{"negative epsilon", `{"receipts":[{"id":1,"price":1,"epsilon_prime":-0.1,"variance":1}],"next_id":1}`},
		{"negative variance", `{"receipts":[{"id":1,"price":1,"epsilon_prime":0.1,"variance":-1}],"next_id":1}`},
		{"negative accountant spend", `{"receipts":[],"next_id":0,"accountants":{"ozone":{"spent":-0.5,"queries":1}}}`},
		{"negative accountant queries", `{"receipts":[],"next_id":0,"accountants":{"ozone":{"spent":0.5,"queries":-1}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { refuseSnapshot(t, tc.json, true) })
	}
	// NaN and ±Inf cannot ride in JSON, so they hit the restore layer
	// through in-process state (a live WAL replay, a buggy caller);
	// cover those entry points directly.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		var fw Wallets
		if err := fw.restoreBalances(map[string]float64{"alice": bad}); err == nil {
			t.Errorf("restoreBalances accepted %v", bad)
		}
	}
	var l Ledger
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := l.restore([]Receipt{{ID: 1, Price: bad, EpsilonPrime: 0.1, Variance: 1}}, 1); err == nil {
			t.Errorf("ledger restore accepted price %v", bad)
		}
		if err := l.restore([]Receipt{{ID: 1, Price: 1, EpsilonPrime: bad, Variance: 1}}, 1); err == nil {
			t.Errorf("ledger restore accepted epsilon %v", bad)
		}
	}
}

// TestConcurrentCompactVsBuy is the torn-snapshot regression for
// compaction: a capture that copied the ledger and the wallets under
// separate locks would let a Buy land between the two copies, writing
// a snapshot where money had left a wallet but no receipt documented
// the sale. Every snapshot.json written during a storm of concurrent
// sales must conserve money: deposits == balances + receipted revenue.
func TestConcurrentCompactVsBuy(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Automatic compaction off: every snapshot written is one this
	// loop writes and then checks.
	broker := durBroker(t, dir, 0, nil, WithCompactionThreshold(0))
	defer broker.CloseDurability()
	req := Request{Dataset: "ozone", Customer: "alice", L: 0, U: 200, Alpha: 0.2, Delta: 0.5}
	price, _, err := broker.Quote("ozone", req.Accuracy())
	if err != nil {
		t.Fatal(err)
	}
	const buyers, buysEach = 4, 6
	// One spare sale's worth of cushion: repeated float subtraction can
	// leave the last buyer a hair short of an exactly-funded balance.
	deposited := price * (buyers*buysEach + 1)
	if err := broker.Deposit("alice", deposited); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < buyers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < buysEach; i++ {
				if _, err := broker.Buy(req); err != nil {
					t.Errorf("buy: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := broker.Compact(); err != nil {
			t.Fatal(err)
		}
		snap, err := readSnapshotFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		var revenue float64
		for _, r := range snap.Receipts {
			revenue += r.Price
		}
		held := snap.Balances["alice"]
		if math.Abs(deposited-(held+revenue)) > 1e-6*deposited {
			t.Fatalf("torn snapshot: deposited %v but balances %v + revenue %v (%d receipts)",
				deposited, held, revenue, len(snap.Receipts))
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

func TestCustomerPrivacyCap(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	// First purchase to learn the per-sale epsilon'.
	resp, err := broker.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	perSale := resp.EpsilonPrime
	if err := broker.SetCustomerPrivacyCap(-1); err == nil {
		t.Error("negative cap should fail")
	}
	// Cap allows roughly one more purchase.
	if err := broker.SetCustomerPrivacyCap(perSale * 2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Buy(req); err != nil {
		t.Fatalf("second purchase within cap should pass: %v", err)
	}
	if _, err := broker.Buy(req); err == nil || !strings.Contains(err.Error(), "privacy cap") {
		t.Fatalf("third purchase should hit the cap, got %v", err)
	}
	// Another customer is unaffected.
	other := req
	other.Customer = "bob"
	if _, err := broker.Buy(other); err != nil {
		t.Errorf("bob should be under his own cap: %v", err)
	}
	// Per-customer accounting matches.
	aliceEps := broker.Ledger().PrivacySpentByCustomer("alice", "ozone")
	if math.Abs(aliceEps-2*perSale) > 1e-9 {
		t.Errorf("alice privacy spend = %v, want %v", aliceEps, 2*perSale)
	}
	// Removing the cap reopens sales.
	if err := broker.SetCustomerPrivacyCap(0); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Buy(req); err != nil {
		t.Errorf("uncapped purchase should pass: %v", err)
	}
}

func TestCapRefundsPrepaidCustomer(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	var w Wallets
	broker.AttachWallets(&w)
	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	price, _, err := broker.Quote("ozone", req.Accuracy())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Deposit("alice", price*5); err != nil {
		t.Fatal(err)
	}
	resp, err := broker.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.SetCustomerPrivacyCap(resp.EpsilonPrime * 1.5); err != nil {
		t.Fatal(err)
	}
	balBefore := w.Balance("alice")
	if _, err := broker.Buy(req); err == nil {
		t.Fatal("cap should block")
	}
	if got := w.Balance("alice"); math.Abs(got-balBefore) > 1e-9 {
		t.Errorf("blocked sale must refund: balance %v, want %v", got, balBefore)
	}
}
