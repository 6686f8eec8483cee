// Package budgetfloat holds golden cases for the budgetfloat analyzer.
package budgetfloat

// exactGate compares two accumulated budgets for exact equality.
func exactGate(epsilon, epsilonPrime float64) bool {
	return epsilon == epsilonPrime // want `exact == on budget-typed floats`
}

// exactNeq is the != spelling of the same bug.
func exactNeq(delta, deltaPrime float64) bool {
	return delta != deltaPrime // want `exact != on budget-typed floats`
}

// headroom differences two budgets inside a comparison, hiding
// catastrophic cancellation.
func headroom(budget, spent, price float64) bool {
	return budget-spent > price // want `budget difference compared directly`
}

// ledger holds an accountant's cap and running spend.
type ledger struct{ cap, spent float64 }

// overCap differences the cap and the spend inside a comparison, as a
// spend gate written against the ledger's fields would.
func (l *ledger) overCap(epsilon float64) bool {
	return l.cap-l.spent < epsilon // want `budget difference compared directly`
}
