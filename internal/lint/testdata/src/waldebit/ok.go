package waldebit

import (
	"privrange/internal/dp"
	"privrange/internal/market"
)

// books mimics a broker-like owner of the durable state.
type books struct {
	wal *market.WAL
}

// journalGrant stands in for the broker's journal helpers; the analyzer
// accepts any journal*-named call as evidence.
func (b *books) journalGrant(customer string, amount float64) error { return nil }

// recordWALBacked journals through the WAL type directly.
func (b *books) recordWALBacked(l *market.Ledger) error {
	l.Record(market.Receipt{Customer: "alice", Dataset: "ozone"})
	return b.wal.Sync()
}

// spendJournaled pairs the ε charge with a journal call.
func (b *books) spendJournaled(a *dp.Accountant) error {
	if err := a.Spend(0.25); err != nil {
		return err
	}
	return b.journalGrant("spend", 0)
}

// quoteOnly never mutates the books; reads need no journal.
func quoteOnly(l *market.Ledger) float64 {
	return l.Revenue()
}
