package market

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privrange/internal/core"
	"privrange/internal/dataset"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/pricing"
)

// updatePins rewrites the golden release table from the current code:
//
//	go test ./internal/market -run TestPinnedReleases -update-pins
//
// Only do that for a change that is meant to move released values.
var updatePins = flag.Bool("update-pins", false, "rewrite testdata/release_pins.golden from the current code")

const pinsGolden = "testdata/release_pins.golden"

// TestPinnedReleases replays a fixed-seed script of single releases
// (Engine.Answer) and single durable, prepaid sales (Broker.Buy) and
// compares every released value bit, ε′, price, receipt, balance and
// accountant total with a table recorded before the serial release and
// sale paths became batches of one. The batch oracles compare batch-of-N
// against batch-of-one; this table is the reference independent of both.
// Cases: plain, cache hit, budget exhausted, per-customer cap withheld,
// invalid query, best-effort degraded, unfunded customer, and the books
// recovered from the WAL alone.
func TestPinnedReleases(t *testing.T) {
	t.Parallel()
	var log pinLog
	pinEngineScript(t, &log)
	pinBrokerScript(t, &log)
	got := strings.Join(log, "\n") + "\n"
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(pinsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(pinsGolden)
	if err != nil {
		t.Fatalf("read golden table (regenerate with -update-pins): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for i := 0; i < len(log) || i < len(want); i++ {
		var g, w string
		if i < len(log) {
			g = log[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("pin %d:\n got  %s\n want %s", i, g, w)
		}
	}
}

// pinLog collects one line per pinned observation. Floats are logged
// as their IEEE-754 bits so "equal" means bit-identical.
type pinLog []string

func (l *pinLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func (l *pinLog) answer(name string, a *core.Answer, err error, acct *dp.Accountant) {
	if err != nil {
		l.add("%s err=%q spent=%s", name, err.Error(), bits(acct.Spent()))
		return
	}
	l.add("%s value=%s eps=%s rate=%s n=%d version=%d coverage=%s spent=%s",
		name, bits(a.Value), bits(a.Plan.EpsilonPrime), bits(a.Rate), a.N, a.CollectionVersion, bits(a.Coverage), bits(acct.Spent()))
}

func (l *pinLog) sale(name string, r *Response, err error) {
	if err != nil {
		l.add("%s err=%q", name, err.Error())
		return
	}
	l.add("%s value=%s price=%s eps=%s coverage=%s %s", name, bits(r.Value), bits(r.Price), bits(r.EpsilonPrime), bits(r.Coverage), receiptLine(*r.Receipt))
}

func receiptLine(r Receipt) string {
	return fmt.Sprintf("receipt{id=%d %s/%s [%v,%v] a=%v d=%v var=%s price=%s eps=%s cov=%s}",
		r.ID, r.Customer, r.Dataset, r.L, r.U, r.Alpha, r.Delta, bits(r.Variance), bits(r.Price), bits(r.EpsilonPrime), bits(r.Coverage))
}

// pinNetwork builds the ozone deployment every pinned engine runs on.
func pinNetwork(t *testing.T, seed int64) (*iot.Network, int) {
	t.Helper()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed, Records: 4000})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(6)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return nw, series.Len()
}

// pinDegradedNetwork is a deployment whose next collection is forced
// (a node just joined) and partial (node 2 is crashed), so a
// best-effort engine answers from degraded coverage.
func pinDegradedNetwork(t *testing.T, seed int64) (*iot.Network, int) {
	t.Helper()
	series, err := dataset.GenerateSeries(dataset.ParticulateMatter, dataset.GenerateConfig{Seed: seed, Records: 4000})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(6)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed, Faults: map[int]iot.FaultProfile{
		2: {CrashWindows: []iot.CrashWindow{{From: 2, Until: 1 << 40}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.EnsureRate(0.6); err != nil {
		t.Fatal(err)
	}
	if err := nw.Ingest(2, []float64{80, 90}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode([]float64{30, 40, 50, 60, 70}); err != nil {
		t.Fatal(err)
	}
	return nw, series.Len() + 5
}

func pinEngine(t *testing.T, nw *iot.Network, seed int64, budget float64, opts ...core.Option) (*core.Engine, *dp.Accountant) {
	t.Helper()
	acct, err := dp.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nw, append([]core.Option{core.WithSeed(seed), core.WithAccountant(acct)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, acct
}

var (
	pinAcc = estimator.Accuracy{Alpha: 0.1, Delta: 0.8}
	pinQ1  = estimator.Query{L: 20, U: 150}
	pinQ2  = estimator.Query{L: 35, U: 90}
	pinQ3  = estimator.Query{L: 0, U: 60}
	pinQ4  = estimator.Query{L: 55, U: 200}
)

// pinEpsilon probes the ε′ one release costs on a throwaway twin of the
// seeded deployment, so budgets and caps can be sized in releases.
func pinEpsilon(t *testing.T, seed int64) float64 {
	t.Helper()
	nw, _ := pinNetwork(t, seed)
	eng, _ := pinEngine(t, nw, seed, 0)
	a, err := eng.Answer(pinQ1, pinAcc)
	if err != nil {
		t.Fatal(err)
	}
	return a.Plan.EpsilonPrime
}

func pinEngineScript(t *testing.T, log *pinLog) {
	const seed = 61
	eps := pinEpsilon(t, seed)

	nw, _ := pinNetwork(t, seed)
	eng, acct := pinEngine(t, nw, seed, 0)
	for i, q := range []estimator.Query{pinQ1, pinQ2, pinQ1} {
		a, err := eng.Answer(q, pinAcc)
		log.answer(fmt.Sprintf("engine/plain#%d", i), a, err, acct)
	}

	nw, _ = pinNetwork(t, seed)
	eng, acct = pinEngine(t, nw, seed, 0, core.WithAnswerCache(true))
	for i, q := range []estimator.Query{pinQ1, pinQ1, pinQ2, pinQ1} {
		a, err := eng.Answer(q, pinAcc)
		log.answer(fmt.Sprintf("engine/cache#%d", i), a, err, acct)
	}

	nw, _ = pinNetwork(t, seed)
	eng, acct = pinEngine(t, nw, seed, 2.5*eps)
	for i, q := range []estimator.Query{pinQ1, pinQ2, pinQ3, pinQ4} {
		a, err := eng.Answer(q, pinAcc)
		log.answer(fmt.Sprintf("engine/budget#%d", i), a, err, acct)
	}

	nw, _ = pinNetwork(t, seed)
	eng, acct = pinEngine(t, nw, seed, 0)
	a, err := eng.Answer(estimator.Query{L: 90, U: 10}, pinAcc)
	log.answer("engine/invalid", a, err, acct)
	// The variance bound is 0 at p = 1, so even this accuracy is met:
	// the engine collects everything and releases at ε′ ≈ 115.
	a, err = eng.Answer(pinQ1, estimator.Accuracy{Alpha: 0.00001, Delta: 0.99})
	log.answer("engine/unachievable", a, err, acct)
	a, err = eng.Answer(pinQ2, pinAcc)
	log.answer("engine/after-failures", a, err, acct)

	dnw, _ := pinDegradedNetwork(t, seed)
	eng, acct = pinEngine(t, dnw, seed, 0, core.WithDegradationPolicy(core.BestEffort))
	for i, q := range []estimator.Query{pinQ1, pinQ2} {
		a, err := eng.Answer(q, pinAcc)
		log.answer(fmt.Sprintf("engine/best-effort#%d", i), a, err, acct)
	}
	dnw, _ = pinDegradedNetwork(t, seed)
	eng, acct = pinEngine(t, dnw, seed, 0)
	a, err = eng.Answer(pinQ1, pinAcc)
	log.answer("engine/strict-partial", a, err, acct)
}

// pinBroker builds the durable, prepaid broker of the sale script over
// dir: ozone with the answer cache, budgeted (the same deployment) with
// a dataset budget, and pm as a best-effort degraded deployment.
// Calling it again on the same dir recovers the books from the WAL.
func pinBroker(t *testing.T, dir string, seed int64, budget, cap float64) (*Broker, map[string]*dp.Accountant) {
	t.Helper()
	b, err := NewBroker(pricing.InverseVariance{C: 100})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachWallets(&Wallets{})
	if err := b.EnableDurability(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.SetCustomerPrivacyCap(cap); err != nil {
		t.Fatal(err)
	}
	nw, n := pinNetwork(t, seed)
	ozone, ozoneAcct := pinEngine(t, nw, seed, 0, core.WithAnswerCache(true))
	if err := b.Register("ozone", ozone, n, 6); err != nil {
		t.Fatal(err)
	}
	bnw, _ := pinNetwork(t, seed)
	budgeted, budgetedAcct := pinEngine(t, bnw, seed, budget)
	if err := b.Register("budgeted", budgeted, n, 6); err != nil {
		t.Fatal(err)
	}
	dnw, dn := pinDegradedNetwork(t, seed)
	pm, pmAcct := pinEngine(t, dnw, seed, 0, core.WithDegradationPolicy(core.BestEffort))
	if err := b.Register("pm", pm, dn, 7); err != nil {
		t.Fatal(err)
	}
	return b, map[string]*dp.Accountant{"ozone": ozoneAcct, "budgeted": budgetedAcct, "pm": pmAcct}
}

func pinBrokerScript(t *testing.T, log *pinLog) {
	const seed = 67
	eps := pinEpsilon(t, seed)
	dir := t.TempDir()
	b, accts := pinBroker(t, dir, seed, 1.5*eps, 2.5*eps)
	customers := []string{"alice", "bob", "carol", "dave"}
	for _, c := range customers[:3] {
		if err := b.Deposit(c, 1000); err != nil {
			t.Fatal(err)
		}
	}
	buy := func(name, customer, ds string, q estimator.Query) {
		resp, err := b.Buy(Request{Dataset: ds, Customer: customer, L: q.L, U: q.U, Alpha: pinAcc.Alpha, Delta: pinAcc.Delta})
		log.sale(name, resp, err)
	}
	buy("buy/plain", "alice", "ozone", pinQ1)
	buy("buy/cache-hit", "alice", "ozone", pinQ1)
	buy("buy/cap-withheld", "alice", "ozone", pinQ2)
	buy("buy/cached-after-withheld", "bob", "ozone", pinQ2)
	buy("buy/plain#2", "bob", "ozone", pinQ3)
	buy("buy/budgeted", "carol", "budgeted", pinQ4)
	buy("buy/budget-exhausted", "carol", "budgeted", pinQ1)
	buy("buy/invalid", "carol", "ozone", estimator.Query{L: 90, U: 10})
	buy("buy/unfunded", "dave", "ozone", pinQ1)
	buy("buy/unknown-dataset", "carol", "no2", pinQ1)
	buy("buy/best-effort", "carol", "pm", pinQ1)
	buy("buy/best-effort#2", "bob", "pm", pinQ2)
	books := func(prefix string, b *Broker, accts map[string]*dp.Accountant) {
		for _, c := range customers {
			log.add("%s balance %s=%s", prefix, c, bits(b.walletStore().Balance(c)))
		}
		for _, ds := range []string{"ozone", "budgeted", "pm"} {
			log.add("%s spent %s=%s", prefix, ds, bits(accts[ds].Spent()))
		}
		for _, r := range b.Ledger().Receipts() {
			log.add("%s %s", prefix, receiptLine(r))
		}
	}
	books("books", b, accts)
	// Recover a second broker from the WAL the first one is still
	// holding (no clean shutdown, so no compaction snapshot). Only
	// charged releases journal an ε′ spend, so the two cached ozone
	// sales add nothing and the recovered spend of every dataset is
	// bit-equal to the live accountant's.
	rb, raccts := pinBroker(t, dir, seed, 1.5*eps, 2.5*eps)
	books("recovered", rb, raccts)
}
