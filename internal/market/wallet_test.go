package market

import (
	"math"
	"strings"
	"sync"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/pricing"
)

// deposit credits w through the reservation Broker.Deposit makes, with
// no journal in between.
func deposit(w *Wallets, customer string, amount float64) error {
	if err := w.reserve(customer, amount); err != nil {
		return err
	}
	w.settle(customer, amount, true)
	return nil
}

func TestWalletsBasics(t *testing.T) {
	t.Parallel()
	var w Wallets
	if err := deposit(&w, "", 10); err == nil {
		t.Error("empty customer should fail")
	}
	if err := deposit(&w, "alice", 0); err == nil {
		t.Error("zero deposit should fail")
	}
	if err := deposit(&w, "alice", 100); err != nil {
		t.Fatal(err)
	}
	if got := w.Balance("alice"); got != 100 {
		t.Errorf("balance = %v", got)
	}
	if got := w.Balance("nobody"); got != 0 {
		t.Errorf("unknown balance = %v", got)
	}
	if err := w.debit("alice", 30); err != nil {
		t.Fatal(err)
	}
	if err := w.debit("alice", 100); err == nil {
		t.Error("overdraft should fail")
	}
	if got := w.Balance("alice"); got != 70 {
		t.Errorf("failed debit must not change balance: %v", got)
	}
	if err := w.debit("alice", -1); err == nil {
		t.Error("negative debit should fail")
	}
	w.refund("alice", 30)
	if got := w.Balance("alice"); got != 100 {
		t.Errorf("refund balance = %v", got)
	}
	if err := deposit(&w, "bob", 5); err != nil {
		t.Fatal(err)
	}
	cs := w.Customers()
	if len(cs) != 2 || cs[0] != "alice" || cs[1] != "bob" {
		t.Errorf("customers = %v", cs)
	}
}

// TestDepositCountsInFlightDebit: a sale's debit lowers the balance
// before its receipt is durable, and a refund (or a replay that skips
// the unresolved debit) adds it back. A deposit that would overflow the
// balance once that happens must be refused while the debit is in
// flight, and accepted again once it is resolved.
func TestDepositCountsInFlightDebit(t *testing.T) {
	t.Parallel()
	var w Wallets
	if err := deposit(&w, "a", 1e308); err != nil {
		t.Fatal(err)
	}
	if err := w.debit("a", 1e308); err != nil {
		t.Fatal(err)
	}
	if err := deposit(&w, "a", 1e308); err == nil {
		t.Fatal("a deposit that a refund of the in-flight debit would overflow was accepted")
	}
	w.refund("a", 1e308)
	if got := w.Balance("a"); got != 1e308 {
		t.Fatalf("balance %v after the refund, want 1e308", got)
	}
	if err := deposit(&w, "a", 1e307); err != nil {
		t.Fatalf("deposit after the refund: %v", err)
	}
	// A resolved debit stays spent and no longer counts.
	if err := w.debit("a", 1e308); err != nil {
		t.Fatal(err)
	}
	w.resolve("a", 1e308)
	if err := deposit(&w, "a", 1e308); err != nil {
		t.Fatalf("deposit after the debit resolved: %v", err)
	}
	if len(w.inflight) != 0 || len(w.pending) != 0 {
		t.Fatalf("entries outlive their operations: inflight %v, pending %v", w.inflight, w.pending)
	}
}

func TestWalletsConcurrent(t *testing.T) {
	t.Parallel()
	var w Wallets
	if err := deposit(&w, "alice", 1000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = w.debit("alice", 1)
			}
		}()
	}
	wg.Wait()
	if got := w.Balance("alice"); got != 200 {
		t.Errorf("balance = %v, want 200", got)
	}
}

func TestPrepaidBrokerEnforcesBalance(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	var w Wallets
	broker.AttachWallets(&w)

	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	if _, err := broker.Buy(req); err == nil || !strings.Contains(err.Error(), "needs") {
		t.Fatalf("empty wallet should block the buy, got %v", err)
	}
	if broker.Ledger().Purchases() != 0 {
		t.Error("blocked buy must not hit the ledger")
	}

	price, _, err := broker.Quote("ozone", req.Accuracy())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Deposit("alice", price*2.5); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Buy(req); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Buy(req); err != nil {
		t.Fatal(err)
	}
	// Third buy: balance is down to 0.5·price.
	if _, err := broker.Buy(req); err == nil {
		t.Error("exhausted wallet should block")
	}
	if got := w.Balance("alice"); math.Abs(got-price*0.5) > 1e-9 {
		t.Errorf("balance = %v, want %v", got, price*0.5)
	}
	if broker.Ledger().Purchases() != 2 {
		t.Errorf("ledger purchases = %d, want 2", broker.Ledger().Purchases())
	}
}

func TestPrepaidBrokerRefundsOnAnswerFailure(t *testing.T) {
	t.Parallel()
	broker, err := NewBroker(pricing.InverseVariance{C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	eng, nw, series := buildEngineNetwork(t, dataset.Ozone, 10, 42)
	if err := broker.Register("ozone", eng, series.Len(), 10); err != nil {
		t.Fatal(err)
	}
	var w Wallets
	broker.AttachWallets(&w)
	// An unachievable accuracy makes the engine fail *after* the debit.
	// Every accuracy is feasible at p = 1, so node 0 is collected at 0.1
	// and then goes down: its stale sample caps the guaranteed rate below
	// the ~0.996 this accuracy needs.
	if _, err := nw.EnsureRate(0.1); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.0005, Delta: 0.999}
	price, _, err := broker.Quote("ozone", req.Accuracy())
	if err != nil {
		t.Fatal(err)
	}
	if err := broker.Deposit("alice", price*2); err != nil {
		t.Fatal(err)
	}
	if _, err := broker.Buy(req); err == nil {
		t.Fatal("impossible accuracy should fail")
	}
	if got := w.Balance("alice"); math.Abs(got-price*2) > 1e-9 {
		t.Errorf("failed answer should refund: balance %v, want %v", got, price*2)
	}
	// Detaching wallets returns to invoice mode.
	broker.AttachWallets(nil)
	ok := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	if _, err := broker.Buy(ok); err != nil {
		t.Errorf("invoice mode should not need a balance: %v", err)
	}
}

func TestWalletProtocolOverTCP(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	var w Wallets
	broker.AttachWallets(&w)
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	price, _, err := client.Quote("ozone", 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Buying before depositing fails.
	req := Request{Dataset: "ozone", Customer: "carol", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	if _, err := client.Buy(req); err == nil {
		t.Fatal("empty remote wallet should block the buy")
	}
	bal, err := client.Deposit("carol", price*1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bal-price*1.5) > 1e-9 {
		t.Errorf("deposit balance = %v", bal)
	}
	if _, err := client.Buy(req); err != nil {
		t.Fatal(err)
	}
	bal, err = client.Balance("carol")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bal-price*0.5) > 1e-9 {
		t.Errorf("post-buy balance = %v, want %v", bal, price*0.5)
	}
	// Bad deposits fail remotely.
	if _, err := client.Deposit("carol", -5); err == nil {
		t.Error("negative remote deposit should fail")
	}
	if _, err := client.Deposit("", 5); err == nil {
		t.Error("anonymous remote deposit should fail")
	}
}

func TestWalletOpsInInvoiceMode(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	resp := broker.Handle(Request{Op: "deposit", Customer: "x", Amount: 5})
	if resp.Error == "" || !strings.Contains(resp.Error, "invoice mode") {
		t.Errorf("deposit in invoice mode should fail, got %+v", resp)
	}
	resp = broker.Handle(Request{Op: "balance", Customer: "x"})
	if resp.Error == "" {
		t.Error("balance in invoice mode should fail")
	}
}

func TestAuditOverTCP(t *testing.T) {
	t.Parallel()
	broker, err := NewBrokerUnchecked(pricing.UnsafeSteep{C: 1e16})
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.Ozone, 8, 73)
	if err := broker.Register("ozone", eng, series.Len(), 8); err != nil {
		t.Fatal(err)
	}
	mallory := ArbitrageConsumer{Name: "mallory", Market: broker, Menu: pricing.DefaultMenu()}
	if _, err := mallory.Buy("ozone", 30, 90, estimator.Accuracy{Alpha: 0.05, Delta: 0.8}); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sus, err := client.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) != 1 || sus[0].Customer != "mallory" {
		t.Errorf("remote audit = %+v", sus)
	}
}

func TestLedgerPrivacySpent(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	req := Request{Dataset: "ozone", Customer: "alice", L: 30, U: 90, Alpha: 0.1, Delta: 0.5}
	var want float64
	for i := 0; i < 3; i++ {
		resp, err := broker.Buy(req)
		if err != nil {
			t.Fatal(err)
		}
		want += resp.EpsilonPrime
	}
	if got := broker.Ledger().PrivacySpent("ozone"); math.Abs(got-want) > 1e-12 {
		t.Errorf("PrivacySpent = %v, want %v", got, want)
	}
	if got := broker.Ledger().PrivacySpent("other"); got != 0 {
		t.Errorf("unknown dataset should have zero privacy spend, got %v", got)
	}
}
