package market

import (
	"fmt"
	"math"
	"testing"

	"privrange/internal/stats"
)

// scanSpent sums one customer's ε′ on one dataset over the receipts in
// order: the reference the ledger's running sum must equal bit for bit.
func scanSpent(receipts []Receipt, customer, dataset string) float64 {
	total := 0.0
	for _, r := range receipts {
		if r.Customer == customer && r.Dataset == dataset {
			total += r.EpsilonPrime
		}
	}
	return total
}

// TestPrivacySpentByCustomerMatchesScan records random interleavings of
// sales across customers and datasets, with ε′ spread over magnitudes
// so that summation order shows in the last bits, and checks every
// (customer, dataset) spend against an explicit scan with ==, live and
// after restore.
func TestPrivacySpentByCustomerMatchesScan(t *testing.T) {
	t.Parallel()
	customers := []string{"alice", "bob", "carol", ""}
	datasets := []string{"ozone", "pm", "co"}
	check := func(label string, l *Ledger) {
		t.Helper()
		receipts := l.Receipts()
		for _, c := range customers {
			for _, d := range datasets {
				if got, want := l.PrivacySpentByCustomer(c, d), scanSpent(receipts, c, d); got != want {
					t.Fatalf("%s: %q on %q spent %v, scan %v", label, c, d, got, want)
				}
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		var l Ledger
		check("empty", &l)
		for i := 0; i < 300; i++ {
			l.Record(Receipt{
				Customer:     customers[rng.Intn(len(customers))],
				Dataset:      datasets[rng.Intn(len(datasets))],
				EpsilonPrime: rng.Float64() * math.Pow(10, float64(rng.Intn(7)-4)),
			})
			check(fmt.Sprintf("seed %d after %d sales", seed, i+1), &l)
		}
		receipts, nextID := l.snapshot()
		var restored Ledger
		if err := restored.restore(receipts, nextID); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d restored", seed), &restored)
		// A restore replaces the running sums along with the receipts.
		if err := restored.restore(receipts[:len(receipts)/2], nextID); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d restored to half", seed), &restored)
	}
}

// TestPrivacySpentByCustomerAfterRecovery: the running spend a durable
// broker recovers from its WAL equals both the live broker's and a scan
// of the recovered receipts.
func TestPrivacySpentByCustomerAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	customers := []string{"alice", "bob", "carol"}
	for _, c := range customers {
		if err := b.Deposit(c, 200); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(9)
	for i := 0; i < 12; i++ {
		durBuy(t, b, customers[rng.Intn(len(customers))])
	}
	live := make(map[string]float64)
	for _, c := range customers {
		live[c] = b.Ledger().PrivacySpentByCustomer(c, "ozone")
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rb := durBroker(t, dir, 0, nil)
	defer rb.CloseDurability()
	receipts := rb.Ledger().Receipts()
	if len(receipts) != 12 {
		t.Fatalf("recovered %d receipts, want 12", len(receipts))
	}
	for _, c := range customers {
		got := rb.Ledger().PrivacySpentByCustomer(c, "ozone")
		if want := scanSpent(receipts, c, "ozone"); got != want {
			t.Errorf("%s: recovered spend %v, scan %v", c, got, want)
		}
		if got != live[c] {
			t.Errorf("%s: recovered spend %v, live %v", c, got, live[c])
		}
	}
}

// spentSink keeps the benchmarked read from being optimized away.
var spentSink float64

// BenchmarkPrivacySpentByCustomer reads one customer's spend, the check
// every capped sale makes, from ledgers of growing size: the cost stays
// flat in the number of receipts.
func BenchmarkPrivacySpentByCustomer(b *testing.B) {
	for _, n := range []int{1000, 14000, 100000} {
		b.Run(fmt.Sprintf("receipts=%d", n), func(b *testing.B) {
			var l Ledger
			customers := []string{"alice", "bob", "carol", "dave"}
			for i := 0; i < n; i++ {
				l.Record(Receipt{Customer: customers[i%len(customers)], Dataset: "ozone", EpsilonPrime: 0.01})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spentSink = l.PrivacySpentByCustomer("carol", "ozone")
			}
		})
	}
}
