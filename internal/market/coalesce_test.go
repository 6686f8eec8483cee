package market

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"privrange/internal/core"
	"privrange/internal/dataset"
	"privrange/internal/dp"
	"privrange/internal/iot"
	"privrange/internal/pricing"
)

// oracleBroker builds a prepaid broker over an identically-seeded
// deployment every time it is called with the same seed: the coalesced
// run and its serial oracle must start from bit-identical worlds.
func oracleBroker(t *testing.T, seed int64) (*Broker, *dp.Accountant) {
	t.Helper()
	b, err := NewBroker(pricing.InverseVariance{C: 100})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachWallets(&Wallets{})
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed, Records: dataset.CityPulseRecords})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	acct, err := dp.NewAccountant(0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nw, core.WithSeed(seed), core.WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Register("ozone", eng, series.Len(), 8); err != nil {
		t.Fatal(err)
	}
	return b, acct
}

// TestSellBatchMatchesSerialOracle runs one deterministic batch sale
// and demands the books come out bit-for-bit identical to executing
// the same buys serially in slice order on a fresh same-seed broker:
// values, prices, ε′, receipt ids, wallet balances, accountant spend.
func TestSellBatchMatchesSerialOracle(t *testing.T) {
	t.Parallel()
	const seed = 97
	customers := []string{"alice", "bob", "alice", "carol", "bob", "alice"}
	reqs := make([]Request, len(customers))
	for i, cust := range customers {
		reqs[i] = Request{
			Op: "buy", Dataset: "ozone", Customer: cust,
			L: float64(10 * i), U: float64(100 + 20*i),
			Alpha: 0.05, Delta: 0.9,
		}
	}
	deposit := func(b *Broker) {
		for _, cust := range []string{"alice", "bob", "carol"} {
			if err := b.Deposit(cust, 1000); err != nil {
				t.Fatal(err)
			}
		}
	}

	batched, batchedAcct := oracleBroker(t, seed)
	deposit(batched)
	results := batched.sellBatch(append([]Request(nil), reqs...), nil)

	serial, serialAcct := oracleBroker(t, seed)
	deposit(serial)
	for i := range reqs {
		want, werr := serial.Buy(reqs[i])
		got := results[i]
		if (got.err == nil) != (werr == nil) {
			t.Fatalf("sale %d: err %v, oracle %v", i, got.err, werr)
		}
		if werr != nil {
			continue
		}
		if got.resp.Value != want.Value {
			t.Errorf("sale %d: value %v, oracle %v", i, got.resp.Value, want.Value)
		}
		if got.resp.Price != want.Price || got.resp.EpsilonPrime != want.EpsilonPrime {
			t.Errorf("sale %d: price/ε′ %v/%v, oracle %v/%v",
				i, got.resp.Price, got.resp.EpsilonPrime, want.Price, want.EpsilonPrime)
		}
		if *got.resp.Receipt != *want.Receipt {
			t.Errorf("sale %d: receipt %+v, oracle %+v", i, *got.resp.Receipt, *want.Receipt)
		}
	}
	if batchedAcct.Spent() != serialAcct.Spent() {
		t.Errorf("ε spend %v, oracle %v", batchedAcct.Spent(), serialAcct.Spent())
	}
	for _, cust := range []string{"alice", "bob", "carol"} {
		if gb, wb := batched.walletStore().Balance(cust), serial.walletStore().Balance(cust); gb != wb {
			t.Errorf("%s balance %v, oracle %v", cust, gb, wb)
		}
	}
}

// TestSellBatchMixedOutcomes proves per-sale failure isolation matches
// the serial path exactly: an invalid request, an unfunded customer and
// a capped customer each fail with the serial path's error while their
// batch-mates settle with the serial path's exact values and books.
func TestSellBatchMixedOutcomes(t *testing.T) {
	t.Parallel()
	const seed = 131
	// Probe ε′ on a throwaway same-seed broker so the cap can be sized
	// to admit exactly two of dave's sales.
	probe, _ := oracleBroker(t, seed)
	if err := probe.Deposit("p", 1000); err != nil {
		t.Fatal(err)
	}
	pr, err := probe.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "p", L: 0, U: 100, Alpha: 0.05, Delta: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cap := pr.EpsilonPrime * 2.5

	reqs := []Request{
		{Op: "buy", Dataset: "ozone", Customer: "dave", L: 0, U: 100, Alpha: 0.05, Delta: 0.9},
		{Op: "buy", Dataset: "ozone", Customer: "dave", L: 200, U: 90, Alpha: 0.05, Delta: 0.9}, // invalid: L > U
		{Op: "buy", Dataset: "ozone", Customer: "pauper", L: 0, U: 50, Alpha: 0.05, Delta: 0.9}, // unfunded
		{Op: "buy", Dataset: "ozone", Customer: "dave", L: 50, U: 150, Alpha: 0.05, Delta: 0.9},
		{Op: "buy", Dataset: "ozone", Customer: "dave", L: 10, U: 90, Alpha: 0.05, Delta: 0.9}, // 3rd sale: over cap
	}
	setup := func(b *Broker) {
		if err := b.SetCustomerPrivacyCap(cap); err != nil {
			t.Fatal(err)
		}
		if err := b.Deposit("dave", 1000); err != nil {
			t.Fatal(err)
		}
	}

	batched, batchedAcct := oracleBroker(t, seed)
	setup(batched)
	results := batched.sellBatch(append([]Request(nil), reqs...), nil)

	serial, serialAcct := oracleBroker(t, seed)
	setup(serial)
	for i := range reqs {
		want, werr := serial.Buy(reqs[i])
		got := results[i]
		if (got.err == nil) != (werr == nil) {
			t.Fatalf("sale %d: err %v, oracle %v", i, got.err, werr)
		}
		if werr != nil {
			if got.err.Error() != werr.Error() {
				t.Errorf("sale %d: err %q, oracle %q", i, got.err, werr)
			}
			continue
		}
		if got.resp.Value != want.Value || *got.resp.Receipt != *want.Receipt {
			t.Errorf("sale %d: %+v, oracle %+v", i, got.resp, want)
		}
	}
	if got, want := results[1].err, "L > U"; got == nil || !strings.Contains(got.Error(), want) {
		t.Errorf("sale 1: want validation error, got %v", got)
	}
	if got := results[2].err; got == nil || !strings.Contains(got.Error(), "needs") {
		t.Errorf("sale 2: want funds error, got %v", got)
	}
	if got := results[4].err; got == nil || !strings.Contains(got.Error(), "privacy cap") {
		t.Errorf("sale 4: want cap error, got %v", got)
	}
	// The withheld sale still charged the dataset accountant — exactly
	// like the serial path.
	if batchedAcct.Spent() != serialAcct.Spent() {
		t.Errorf("ε spend %v, oracle %v", batchedAcct.Spent(), serialAcct.Spent())
	}
	if gb, wb := batched.walletStore().Balance("dave"), serial.walletStore().Balance("dave"); gb != wb {
		t.Errorf("dave balance %v, oracle %v", gb, wb)
	}
}

// TestCoalescedConcurrentBuysMatchSerialOracle is the tentpole
// acceptance test: a concurrent protocol workload through the
// coalescer, then a serial replay of the same buys in receipt-id order
// on a fresh same-seed broker. The coalescer's single executor
// totally orders batch commits and each batch releases and records in
// slice order, so receipt order IS the linearization — the replay must
// reproduce every released value, receipt, balance and the accountant
// total bit-for-bit (one draw and one charge per query).
func TestCoalescedConcurrentBuysMatchSerialOracle(t *testing.T) {
	t.Parallel()
	const (
		seed    = 211
		workers = 8
		perW    = 6
	)
	customers := []string{"alice", "bob", "carol", "dave"}
	deposit := func(b *Broker) {
		for _, cust := range customers {
			if err := b.Deposit(cust, 10_000); err != nil {
				t.Fatal(err)
			}
		}
	}

	coalesced, coalescedAcct := oracleBroker(t, seed)
	deposit(coalesced)
	co := coalesced.EnableCoalescing(CoalesceConfig{Window: 2 * time.Millisecond, MaxBatch: 16})
	defer co.Close()

	type trade struct {
		req  Request
		resp *Response
	}
	trades := make([]trade, workers*perW)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perW; j++ {
				req := Request{
					Op: "buy", Dataset: "ozone",
					Customer: customers[(w+j)%len(customers)],
					L:        float64(5 * ((w*perW + j) % 13)),
					U:        float64(120 + 10*((w+j)%7)),
					Alpha:    0.05, Delta: 0.9,
				}
				resp := coalesced.Handle(req)
				if resp.Error != "" {
					t.Errorf("worker %d buy %d: %s", w, j, resp.Error)
					return
				}
				trades[w*perW+j] = trade{req: req, resp: resp}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Replay in receipt-id order: the commit order the coalesced run
	// actually linearized to.
	sort.Slice(trades, func(i, j int) bool {
		return trades[i].resp.Receipt.ID < trades[j].resp.Receipt.ID
	})
	serial, serialAcct := oracleBroker(t, seed)
	deposit(serial)
	for i, tr := range trades {
		if want, got := int64(i+1), tr.resp.Receipt.ID; want != got {
			t.Fatalf("receipt ids must be gapless: position %d has id %d", i, got)
		}
		oracle, err := serial.Buy(tr.req)
		if err != nil {
			t.Fatalf("oracle buy %d: %v", i, err)
		}
		if oracle.Value != tr.resp.Value {
			t.Errorf("receipt %d: value %v, oracle %v (must be bit-identical)", tr.resp.Receipt.ID, tr.resp.Value, oracle.Value)
		}
		if *oracle.Receipt != *tr.resp.Receipt {
			t.Errorf("receipt %d: %+v, oracle %+v", tr.resp.Receipt.ID, *tr.resp.Receipt, *oracle.Receipt)
		}
	}
	if coalescedAcct.Spent() != serialAcct.Spent() {
		t.Errorf("ε spend %v, oracle %v", coalescedAcct.Spent(), serialAcct.Spent())
	}
	for _, cust := range customers {
		if gb, wb := coalesced.walletStore().Balance(cust), serial.walletStore().Balance(cust); gb != wb {
			t.Errorf("%s balance %v, oracle %v", cust, gb, wb)
		}
	}
	// The workload must actually have coalesced (folded counter covers
	// every buy) — otherwise this test proves nothing about batching.
	// Metrics were nil here, so assert via the ledger instead: every
	// trade recorded exactly once.
	if got := len(coalesced.Ledger().Receipts()); got != len(trades) {
		t.Errorf("ledger has %d receipts, want %d (exactly once per buy)", got, len(trades))
	}
}

// TestCoalescerDurableRecovery: coalesced sales journal like serial
// ones — kill the broker after a concurrent coalesced workload and the
// recovered books carry every acked sale exactly once.
func TestCoalescerDurableRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("alice", 1000); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("bob", 1000); err != nil {
		t.Fatal(err)
	}
	co := b.EnableCoalescing(CoalesceConfig{Window: time.Millisecond, MaxBatch: 8})
	var wg sync.WaitGroup
	var mu sync.Mutex
	acked := make(map[int64]Receipt)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cust := "alice"
			if w%2 == 1 {
				cust = "bob"
			}
			resp := b.Handle(Request{
				Op: "buy", Dataset: "ozone", Customer: cust,
				L: float64(10 * w), U: float64(200 + 10*w),
				Alpha: 0.2, Delta: 0.5,
			})
			if resp.Error != "" {
				t.Errorf("buy %d: %s", w, resp.Error)
				return
			}
			mu.Lock()
			acked[resp.Receipt.ID] = *resp.Receipt
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	co.Close()
	aliceBal := b.walletStore().Balance("alice")
	bobBal := b.walletStore().Balance("bob")
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	recovered := durBroker(t, dir, 0, nil)
	if got, want := recovered.walletStore().Balance("alice"), aliceBal; got != want {
		t.Errorf("alice recovered %v, want %v", got, want)
	}
	if got, want := recovered.walletStore().Balance("bob"), bobBal; got != want {
		t.Errorf("bob recovered %v, want %v", got, want)
	}
	rec := recovered.Ledger().Receipts()
	if len(rec) != len(acked) {
		t.Fatalf("recovered %d receipts, want %d", len(rec), len(acked))
	}
	for _, r := range rec {
		if want, ok := acked[r.ID]; !ok || want != r {
			t.Errorf("recovered receipt %+v does not match acked %+v", r, want)
		}
	}
}

// TestCoalescerCloseDrains: Close executes every accumulated batch, no
// buy is lost, and buys arriving after Close settle via the serial
// fallback.
func TestCoalescerCloseDrains(t *testing.T) {
	t.Parallel()
	b, _ := oracleBroker(t, 17)
	if err := b.Deposit("alice", 1000); err != nil {
		t.Fatal(err)
	}
	// A long window guarantees the batch is still accumulating when
	// Close runs: Close itself must flush it.
	co := b.EnableCoalescing(CoalesceConfig{Window: time.Minute, MaxBatch: 64})
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := b.Handle(Request{
				Op: "buy", Dataset: "ozone", Customer: "alice",
				L: float64(i), U: float64(100 + i), Alpha: 0.1, Delta: 0.8,
			})
			errs[i] = resp.Error
		}(i)
	}
	// Give the buys time to enqueue into the accumulating batch, then
	// close underneath them.
	time.Sleep(50 * time.Millisecond)
	co.Close()
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("buy %d lost across Close: %s", i, e)
		}
	}
	// Post-Close buys degrade to the serial path instead of hanging.
	resp := b.Handle(Request{Op: "buy", Dataset: "ozone", Customer: "alice", L: 0, U: 50, Alpha: 0.1, Delta: 0.8})
	if resp.Error != "" {
		t.Errorf("post-Close buy: %s", resp.Error)
	}
	if got := len(b.Ledger().Receipts()); got != 5 {
		t.Errorf("ledger has %d receipts, want 5", got)
	}
	co.Close() // idempotent
}

// TestCoalesceKeysDoNotMix: buys at different accuracies land in
// different batches but still all settle correctly.
func TestCoalesceKeysDoNotMix(t *testing.T) {
	t.Parallel()
	b, _ := oracleBroker(t, 53)
	if err := b.Deposit("alice", 100_000); err != nil {
		t.Fatal(err)
	}
	co := b.EnableCoalescing(CoalesceConfig{Window: 2 * time.Millisecond, MaxBatch: 8})
	defer co.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			alpha := 0.05
			if i%2 == 1 {
				alpha = 0.1
			}
			resp := b.Handle(Request{
				Op: "buy", Dataset: "ozone", Customer: "alice",
				L: 0, U: float64(100 + i), Alpha: alpha, Delta: 0.9,
			})
			if resp.Error != "" {
				t.Errorf("buy %d: %s", i, resp.Error)
			} else if resp.Receipt.Alpha != alpha {
				t.Errorf("buy %d: receipt alpha %v, want %v (keys mixed)", i, resp.Receipt.Alpha, alpha)
			}
		}(i)
	}
	wg.Wait()
	if got := len(b.Ledger().Receipts()); got != 12 {
		t.Errorf("ledger has %d receipts, want 12", got)
	}
}
