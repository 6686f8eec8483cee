package market

import (
	"fmt"
)

// SetCustomerPrivacyCap limits the cumulative effective privacy budget
// Σε′ any single customer may extract from any single dataset. Repeated
// purchases of the same data leak cumulatively (sequential composition),
// so a broker bounds its per-customer exposure the same way it bounds
// the dataset-wide budget. Zero removes the cap.
func (b *Broker) SetCustomerPrivacyCap(epsilon float64) error {
	if epsilon < 0 {
		return fmt.Errorf("market: negative privacy cap %v", epsilon)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.customerCap = epsilon
	return nil
}

func (b *Broker) customerPrivacyCap() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.customerCap
}

// PrivacySpentByCustomer returns one customer's cumulative Σε′ on one
// dataset: the running sum the ledger keeps in receipt order, equal bit
// for bit to summing the customer's receipts.
func (l *Ledger) PrivacySpentByCustomer(customer, dataset string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent[spendKey{customer, dataset}]
}
