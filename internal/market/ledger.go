package market

import (
	"fmt"
	"sync"
)

// Ledger records completed purchases. It is safe for concurrent use; its
// zero value is ready.
type Ledger struct {
	mu       sync.Mutex
	receipts []Receipt
	nextID   int64
	// spent is Σε′ per (customer, dataset), added up in receipt order as
	// Record and restore store receipts, so it is bit-identical to a scan
	// of receipts and a capped sale checks it in O(1).
	spent map[spendKey]float64
}

// spendKey identifies one customer's spend on one dataset.
type spendKey struct{ customer, dataset string }

// Record assigns the receipt an id, stores it, and returns the completed
// receipt.
func (l *Ledger) Record(r Receipt) Receipt {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	r.ID = l.nextID
	l.appendLocked(r)
	return r
}

// appendLocked stores one receipt and adds its ε′ to its customer's
// running spend. Callers hold l.mu.
func (l *Ledger) appendLocked(r Receipt) {
	if l.spent == nil {
		l.spent = make(map[spendKey]float64)
	}
	l.receipts = append(l.receipts, r)
	l.spent[spendKey{r.Customer, r.Dataset}] += r.EpsilonPrime
}

// Revenue returns the broker's total take.
func (l *Ledger) Revenue() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, r := range l.receipts {
		total += r.Price
	}
	return total
}

// SpentBy returns one customer's total spend.
func (l *Ledger) SpentBy(customer string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, r := range l.receipts {
		if r.Customer == customer {
			total += r.Price
		}
	}
	return total
}

// Purchases returns the number of recorded receipts.
func (l *Ledger) Purchases() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.receipts)
}

// Receipts returns a copy of all receipts in purchase order.
func (l *Ledger) Receipts() []Receipt {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Receipt, len(l.receipts))
	copy(out, l.receipts)
	return out
}

// PrivacySpent returns the cumulative effective privacy budget Σε′ the
// ledger records as released for one dataset — the broker's view of how
// exposed that dataset is across all sales.
func (l *Ledger) PrivacySpent(dataset string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, r := range l.receipts {
		if r.Dataset == dataset {
			total += r.EpsilonPrime
		}
	}
	return total
}

// Get returns the receipt with the given id.
func (l *Ledger) Get(id int64) (Receipt, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.receipts {
		if r.ID == id {
			return r, nil
		}
	}
	return Receipt{}, fmt.Errorf("market: no receipt %d", id)
}
