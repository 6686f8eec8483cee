package dp

import (
	"fmt"
	"math"
	"sync"

	"privrange/internal/telemetry"
)

// Accountant tracks cumulative privacy loss under sequential composition:
// answering queries with budgets ε₁, ε₂, … on the same data consumes
// ε₁+ε₂+… in total. A broker that keeps selling answers about the same
// dataset uses the accountant to know (and bound) its total exposure.
// Accountant is safe for concurrent use; its zero value has no cap.
type Accountant struct {
	mu    sync.Mutex
	spent float64
	cap   float64 // 0 means unlimited
	n     int

	// Telemetry handles (all optional, nil-safe): per-query privacy
	// loss is an operational signal, not just a proof artifact — ops
	// watch ε-spend the way they watch memory. Only the aggregate spend
	// crosses into telemetry, never anything query-derived.
	mSpent     *telemetry.Gauge
	mRemaining *telemetry.Gauge
	mReleases  *telemetry.Counter
}

// NewAccountant returns an accountant that refuses to exceed the given
// total budget. A zero cap means unlimited. It returns an error for a
// negative cap.
func NewAccountant(totalBudget float64) (*Accountant, error) {
	if totalBudget < 0 {
		return nil, fmt.Errorf("dp: negative total budget %v", totalBudget)
	}
	return &Accountant{cap: totalBudget}, nil
}

// Instrument attaches telemetry to the accountant: a gauge tracking
// cumulative ε spent, a gauge tracking the remaining budget (left unset
// while uncapped), and a counter of recorded releases. Any handle may
// be nil. The gauges are primed immediately so a scrape between
// Instrument and the first Spend sees the true state.
func (a *Accountant) Instrument(spent, remaining *telemetry.Gauge, releases *telemetry.Counter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mSpent = spent
	a.mRemaining = remaining
	a.mReleases = releases
	a.publishLocked()
}

// publishLocked pushes the current state to the attached gauges.
// Callers hold a.mu.
func (a *Accountant) publishLocked() {
	a.mSpent.Set(a.spent)
	if a.cap > 0 {
		a.mRemaining.Set(a.cap - a.spent)
	}
}

// Spend records a query that consumed epsilon. It returns an error (and
// records nothing) if epsilon is negative, NaN or infinite, or the cap
// would be exceeded.
func (a *Accountant) Spend(epsilon float64) error {
	if !(epsilon >= 0) || math.IsInf(epsilon, 1) {
		return fmt.Errorf("dp: cannot spend epsilon %v: it must be finite and non-negative", epsilon)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cap > 0 && a.spent+epsilon > a.cap {
		return fmt.Errorf("dp: budget exhausted: spent %.4f + %.4f exceeds cap %.4f", a.spent, epsilon, a.cap)
	}
	a.spent += epsilon
	a.n++
	a.mReleases.Inc()
	a.publishLocked()
	return nil
}

// Spent returns the cumulative privacy loss so far.
func (a *Accountant) Spent() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// Remaining returns the budget left before the cap, or +Inf semantics via
// ok=false when uncapped.
func (a *Accountant) Remaining() (rem float64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cap == 0 {
		return 0, false
	}
	return a.cap - a.spent, true
}

// Queries returns how many spends were recorded.
func (a *Accountant) Queries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// State is an accountant's durable bookkeeping: the cumulative ε
// released and the number of recorded spends. The market layer
// journals and snapshots it so privacy exposure survives a broker
// restart — a crash must never reset Σε′ to zero.
type State struct {
	Spent   float64 `json:"spent"`
	Queries int     `json:"queries"`
}

// Snapshot returns the accountant's current durable state.
func (a *Accountant) Snapshot() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return State{Spent: a.spent, Queries: a.n}
}

// Restore loads a previously snapshotted state into a pristine
// accountant. It refuses non-finite or negative values, a state over
// the accountant's cap, and — critically — an accountant that has
// already recorded spends: restoring over live bookkeeping would
// erase released ε. The cap itself is construction-time configuration
// and is not part of the state.
func (a *Accountant) Restore(s State) error {
	if math.IsNaN(s.Spent) || math.IsInf(s.Spent, 0) || s.Spent < 0 {
		return fmt.Errorf("dp: restore: spent %v is not a valid budget", s.Spent)
	}
	if s.Queries < 0 {
		return fmt.Errorf("dp: restore: negative query count %d", s.Queries)
	}
	if s.Queries == 0 && s.Spent != 0 {
		return fmt.Errorf("dp: restore: spent %v with zero recorded queries", s.Spent)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent != 0 || a.n != 0 {
		return fmt.Errorf("dp: restore into an accountant that already recorded %d spends (Σε′=%.4f); restore must precede service", a.n, a.spent)
	}
	if a.cap > 0 && s.Spent > a.cap {
		return fmt.Errorf("dp: restore: spent %.4f exceeds cap %.4f", s.Spent, a.cap)
	}
	a.spent = s.Spent
	a.n = s.Queries
	a.publishLocked()
	return nil
}
