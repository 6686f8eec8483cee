// Package waldebit holds golden cases for the waldebit analyzer.
package waldebit

import (
	"privrange/internal/dp"
	"privrange/internal/market"
)

// recordUnjournaled appends a receipt the log never sees.
func recordUnjournaled(l *market.Ledger) {
	l.Record(market.Receipt{Customer: "alice", Dataset: "ozone"}) // want `without journaling`
}

// spendUnjournaled charges privacy budget that recovery cannot rebuild.
func spendUnjournaled(a *dp.Accountant) error {
	return a.Spend(0.25) // want `without journaling`
}
