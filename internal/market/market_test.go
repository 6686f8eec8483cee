package market

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"privrange/internal/core"
	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/pricing"
)

func buildEngine(t testing.TB, p dataset.Pollutant, k int, seed int64) (*core.Engine, *dataset.Series) {
	t.Helper()
	eng, _, series := buildEngineNetwork(t, p, k, seed)
	return eng, series
}

// buildEngineNetwork is buildEngine that also returns the engine's
// network, for tests that drive collection or node outages directly.
func buildEngineNetwork(t testing.TB, p dataset.Pollutant, k int, seed int64) (*core.Engine, *iot.Network, *dataset.Series) {
	t.Helper()
	series, err := dataset.GenerateSeries(p, dataset.GenerateConfig{Seed: seed, Records: dataset.CityPulseRecords})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(k)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nw, core.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return eng, nw, series
}

func buildBroker(t testing.TB, tariff pricing.Function) (*Broker, *dataset.Series) {
	t.Helper()
	broker, err := NewBroker(tariff)
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.Ozone, 10, 42)
	if err := broker.Register("ozone", eng, series.Len(), 10); err != nil {
		t.Fatal(err)
	}
	return broker, series
}

func TestNewBrokerRefusesExploitableTariff(t *testing.T) {
	t.Parallel()
	if _, err := NewBroker(pricing.UnsafeSteep{C: 100}); err == nil {
		t.Error("broker should refuse a tariff with arbitrage")
	}
	if _, err := NewBroker(nil); err == nil {
		t.Error("nil tariff should fail")
	}
	if _, err := NewBrokerUnchecked(pricing.UnsafeSteep{C: 100}); err != nil {
		t.Error("unchecked constructor should allow it for experiments")
	}
}

func TestRegisterValidation(t *testing.T) {
	t.Parallel()
	broker, err := NewBroker(pricing.InverseVariance{C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.Ozone, 4, 1)
	if err := broker.Register("", eng, series.Len(), 4); err == nil {
		t.Error("empty name should fail")
	}
	if err := broker.Register("x", nil, 10, 1); err == nil {
		t.Error("nil engine should fail")
	}
	if err := broker.Register("x", eng, 0, 1); err == nil {
		t.Error("n=0 should fail")
	}
	if err := broker.Register("x", eng, series.Len(), 4); err != nil {
		t.Fatal(err)
	}
	if err := broker.Register("x", eng, series.Len(), 4); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestQuoteAndCatalog(t *testing.T) {
	t.Parallel()
	broker, series := buildBroker(t, pricing.BaseFeePlusInverse{Base: 1, C: 1e9})
	price, variance, err := broker.Quote("ozone", estimator.Accuracy{Alpha: 0.1, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantVar := math.Pow(0.1*float64(series.Len()), 2) * 0.5
	if math.Abs(variance-wantVar) > 1e-6 {
		t.Errorf("variance = %v, want %v", variance, wantVar)
	}
	if wantPrice := 1 + 1e9/wantVar; math.Abs(price-wantPrice) > 1e-9 {
		t.Errorf("price = %v, want %v", price, wantPrice)
	}
	if _, _, err := broker.Quote("nope", estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("unknown dataset should fail")
	}
	cat := broker.Catalog()
	if len(cat) != 1 || cat[0].Name != "ozone" || cat[0].N != series.Len() || cat[0].Nodes != 10 {
		t.Errorf("catalog = %+v", cat)
	}
}

func TestBuyRecordsLedgerAndMeetsAccuracy(t *testing.T) {
	t.Parallel()
	broker, series := buildBroker(t, pricing.InverseVariance{C: 1e9})
	req := Request{
		Dataset:  "ozone",
		Customer: "alice",
		L:        40,
		U:        100,
		Alpha:    0.08,
		Delta:    0.6,
	}
	resp, err := broker.Buy(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Receipt == nil {
		t.Fatalf("bad response: %+v", resp)
	}
	truth, err := series.RangeCount(40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Value-float64(truth)) > 3*0.08*float64(series.Len()) {
		t.Errorf("value %v wildly off truth %d", resp.Value, truth)
	}
	if resp.EpsilonPrime <= 0 {
		t.Error("missing privacy metadata")
	}
	ledger := broker.Ledger()
	if ledger.Purchases() != 1 {
		t.Fatalf("ledger purchases = %d", ledger.Purchases())
	}
	if got := ledger.SpentBy("alice"); math.Abs(got-resp.Price) > 1e-12 {
		t.Errorf("alice spent %v, want %v", got, resp.Price)
	}
	if got := ledger.Revenue(); math.Abs(got-resp.Price) > 1e-12 {
		t.Errorf("revenue %v, want %v", got, resp.Price)
	}
	rec, err := ledger.Get(resp.Receipt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Customer != "alice" || rec.Dataset != "ozone" {
		t.Errorf("receipt = %+v", rec)
	}
	if _, err := ledger.Get(999); err == nil {
		t.Error("missing receipt should fail")
	}
}

func TestBuyValidation(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	cases := []struct {
		name string
		req  Request
	}{
		{name: "missing dataset", req: Request{Customer: "a", L: 0, U: 1, Alpha: 0.1, Delta: 0.5}},
		{name: "missing customer", req: Request{Dataset: "ozone", L: 0, U: 1, Alpha: 0.1, Delta: 0.5}},
		{name: "bad accuracy", req: Request{Dataset: "ozone", Customer: "a", L: 0, U: 1, Alpha: 0, Delta: 0.5}},
		{name: "bad range", req: Request{Dataset: "ozone", Customer: "a", L: 5, U: 1, Alpha: 0.1, Delta: 0.5}},
		{name: "unknown dataset", req: Request{Dataset: "zzz", Customer: "a", L: 0, U: 1, Alpha: 0.1, Delta: 0.5}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if _, err := broker.Buy(tc.req); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestHandleNeverErrors(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	resp := broker.Handle(Request{Op: "nonsense"})
	if resp.Error == "" {
		t.Error("unknown op should report an error string")
	}
	resp = broker.Handle(Request{Op: "quote", Dataset: "ozone", Alpha: 0.1, Delta: 0.5})
	if resp.Error != "" || !resp.OK {
		t.Errorf("quote via handle failed: %+v", resp)
	}
	resp = broker.Handle(Request{Op: "catalog"})
	if len(resp.Datasets) != 1 {
		t.Errorf("catalog via handle: %+v", resp)
	}
}

func TestServerEndToEnd(t *testing.T) {
	t.Parallel()
	broker, series := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cat, err := client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != 1 || cat[0].Name != "ozone" {
		t.Fatalf("catalog = %+v", cat)
	}

	price, variance, err := client.Quote("ozone", 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if price <= 0 || variance <= 0 {
		t.Errorf("quote = %v, %v", price, variance)
	}

	resp, err := client.Buy(Request{
		Dataset: "ozone", Customer: "bob", L: 30, U: 90, Alpha: 0.1, Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := series.RangeCount(30, 90)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Value-float64(truth)) > 3*0.1*float64(series.Len()) {
		t.Errorf("remote value %v wildly off truth %d", resp.Value, truth)
	}
	if broker.Ledger().Purchases() != 1 {
		t.Error("remote buy should hit the ledger")
	}
}

func TestServerRemoteErrorPropagates(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
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
	_, _, err = client.Quote("missing-dataset", 0.1, 0.5)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if !strings.Contains(err.Error(), "missing-dataset") {
		t.Errorf("remote error should carry the broker message, got %v", err)
	}
}

func TestServerMalformedRequest(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
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
	// Raw garbage line straight down the socket.
	if _, err := client.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := client.reader.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), "malformed") {
		t.Errorf("want malformed-request error, got %s", line)
	}
	// Connection must still work afterwards.
	if _, err := client.Catalog(); err != nil {
		t.Errorf("connection should survive a bad line: %v", err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for j := 0; j < 5; j++ {
				if _, _, err := client.Quote("ozone", 0.1, 0.5); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHonestConsumer(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	alice := HonestConsumer{Name: "alice", Market: broker}
	p, err := alice.Buy("ozone", 30, 90, estimator.Accuracy{Alpha: 0.1, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Arbitrage {
		t.Error("honest purchase should not be arbitrage")
	}
	if p.Cost != p.DirectPrice || len(p.Receipts) != 1 {
		t.Errorf("purchase = %+v", p)
	}
	if (HonestConsumer{Name: "x"}).Market != nil {
		t.Fatal("sanity")
	}
	if _, err := (HonestConsumer{Name: "x"}).Buy("ozone", 0, 1, estimator.Accuracy{Alpha: 0.1, Delta: 0.5}); err == nil {
		t.Error("no market should fail")
	}
}

func TestArbitrageConsumerBeatsUnsafeTariff(t *testing.T) {
	t.Parallel()
	broker, err := NewBrokerUnchecked(pricing.UnsafeSteep{C: 1e16})
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.Ozone, 10, 7)
	if err := broker.Register("ozone", eng, series.Len(), 10); err != nil {
		t.Fatal(err)
	}
	mallory := ArbitrageConsumer{Name: "mallory", Market: broker, Menu: pricing.DefaultMenu()}
	target := estimator.Accuracy{Alpha: 0.05, Delta: 0.8}
	p, err := mallory.Buy("ozone", 30, 90, target)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Arbitrage {
		t.Fatal("adversary should find arbitrage on the unsafe tariff")
	}
	if p.Savings() <= 0 {
		t.Errorf("attack should save money: cost %v vs direct %v", p.Cost, p.DirectPrice)
	}
	if len(p.Receipts) < 2 {
		t.Errorf("attack should involve multiple purchases, got %d", len(p.Receipts))
	}
	// The broker's ledger shows the multi-buy.
	if broker.Ledger().Purchases() != len(p.Receipts) {
		t.Error("ledger should record every attack purchase")
	}
}

func TestArbitrageConsumerCannotBeatSafeTariff(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.BaseFeePlusInverse{Base: 2, C: 1e9})
	mallory := ArbitrageConsumer{Name: "mallory", Market: broker, Menu: pricing.DefaultMenu()}
	for _, target := range []estimator.Accuracy{
		{Alpha: 0.05, Delta: 0.8},
		{Alpha: 0.1, Delta: 0.6},
	} {
		p, err := mallory.Buy("ozone", 30, 90, target)
		if err != nil {
			t.Fatal(err)
		}
		if p.Arbitrage {
			t.Errorf("safe tariff should not be beaten; strategy saved %v at %+v", p.Savings(), target)
		}
		if p.Cost > p.DirectPrice+1e-9 {
			t.Errorf("adversary should never overpay: %v > %v", p.Cost, p.DirectPrice)
		}
	}
}

func TestArbitrageConsumerOverTCP(t *testing.T) {
	t.Parallel()
	broker, err := NewBrokerUnchecked(pricing.UnsafeSteep{C: 1e16})
	if err != nil {
		t.Fatal(err)
	}
	eng, series := buildEngine(t, dataset.NitrogenDioxide, 8, 9)
	if err := broker.Register("no2", eng, series.Len(), 8); err != nil {
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
	mallory := ArbitrageConsumer{
		Name:   "mallory",
		Market: RemoteMarket{Client: client},
		Menu:   pricing.DefaultMenu(),
	}
	p, err := mallory.Buy("no2", 30, 90, estimator.Accuracy{Alpha: 0.05, Delta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Arbitrage || p.Savings() <= 0 {
		t.Errorf("remote attack should succeed on unsafe tariff: %+v", p)
	}
}

func TestRequestValidate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{name: "catalog", req: Request{Op: "catalog"}, ok: true},
		{name: "quote ok", req: Request{Op: "quote", Dataset: "d", Alpha: 0.1, Delta: 0.5}, ok: true},
		{name: "quote no dataset", req: Request{Op: "quote", Alpha: 0.1, Delta: 0.5}, ok: false},
		{name: "buy ok", req: Request{Op: "buy", Dataset: "d", Customer: "c", L: 0, U: 1, Alpha: 0.1, Delta: 0.5}, ok: true},
		{name: "buy bad op", req: Request{Op: "sell"}, ok: false},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestHandleNeverPanicsProperty: arbitrary requests through the protocol
// dispatcher must always yield a non-nil response, never a panic.
func TestHandleNeverPanicsProperty(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	ops := []string{"catalog", "quote", "buy", "deposit", "balance", "audit", "bogus", ""}
	f := func(opIdx uint8, dataset, customer string, l, u, alpha, delta, amount float64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		req := Request{
			Op:       ops[int(opIdx)%len(ops)],
			Dataset:  dataset,
			Customer: customer,
			L:        l,
			U:        u,
			Alpha:    alpha,
			Delta:    delta,
			Amount:   amount,
		}
		resp := broker.Handle(req)
		return resp != nil && (resp.OK || resp.Error != "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
