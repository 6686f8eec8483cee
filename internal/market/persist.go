package market

import (
	"fmt"

	"privrange/internal/dp"
)

// Snapshot is the broker's durable trading state: the ledger, the
// prepaid balances and each dataset's privacy-accountant bookkeeping.
// Sample state is deliberately excluded — on restart a broker
// re-collects from the (authoritative) IoT network, while money,
// receipts and released ε must survive. It is the WAL directory's
// compaction snapshot (snapshot.json); a document without last_seq —
// the shutdown file older releases wrote — recovers as a snapshot that
// folds in no log records.
type Snapshot struct {
	Receipts []Receipt          `json:"receipts"`
	NextID   int64              `json:"next_id"`
	Balances map[string]float64 `json:"balances,omitempty"`
	// Accountants maps dataset name → recovered ε bookkeeping, applied
	// to each dataset's accountant as it registers.
	Accountants map[string]dp.State `json:"accountants,omitempty"`
	// LastSeq is the WAL sequence number this snapshot folds in; replay
	// skips records at or below it (compaction crash safety).
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// snapshot extracts the ledger state.
func (l *Ledger) snapshot() ([]Receipt, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Receipt, len(l.receipts))
	copy(out, l.receipts)
	return out, l.nextID
}

// restore replaces the ledger state. Beyond the id discipline it
// rejects non-finite money and ε: NaN slips past every `< 0` guard and
// ±Inf poisons every revenue sum downstream.
func (l *Ledger) restore(receipts []Receipt, nextID int64) error {
	seen := make(map[int64]bool, len(receipts))
	for _, r := range receipts {
		if r.ID <= 0 || r.ID > nextID {
			return fmt.Errorf("market: receipt id %d outside [1, %d]", r.ID, nextID)
		}
		if seen[r.ID] {
			return fmt.Errorf("market: duplicate receipt id %d", r.ID)
		}
		seen[r.ID] = true
		if !isFinite(r.Price) || r.Price < 0 {
			return fmt.Errorf("market: receipt %d has invalid price %v", r.ID, r.Price)
		}
		if !isFinite(r.EpsilonPrime) || r.EpsilonPrime < 0 {
			return fmt.Errorf("market: receipt %d has invalid epsilon %v", r.ID, r.EpsilonPrime)
		}
		if !isFinite(r.Variance) || r.Variance < 0 {
			return fmt.Errorf("market: receipt %d has invalid variance %v", r.ID, r.Variance)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.receipts = make([]Receipt, 0, len(receipts))
	l.spent = nil
	for _, r := range receipts {
		l.appendLocked(r)
	}
	l.nextID = nextID
	return nil
}

// snapshotBalances copies the wallet state.
func (w *Wallets) snapshotBalances() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]float64, len(w.balances))
	for c, b := range w.balances {
		out[c] = b
	}
	return out
}

// restoreBalances replaces the wallet state. Non-finite balances are
// rejected explicitly: `b < 0` is false for NaN, so a corrupted
// snapshot with a NaN (or +Inf) balance would otherwise restore
// "successfully" and then pass every later sufficient-funds check.
func (w *Wallets) restoreBalances(balances map[string]float64) error {
	for c, b := range balances {
		if c == "" {
			return fmt.Errorf("market: snapshot has an anonymous balance")
		}
		if !isFinite(b) || b < 0 {
			return fmt.Errorf("market: snapshot has invalid balance %v for %q", b, c)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.balances = make(map[string]float64, len(balances))
	for c, b := range balances {
		w.balances[c] = b
	}
	return nil
}

// captureStateLocked assembles one consistent Snapshot of ledger,
// wallets and accountants. Callers hold commitMu exclusively: every
// mutating operation spans its whole debit→record sequence under the
// shared side of that lock, so a compaction can never capture a sale's
// debit without its receipt — the torn snapshot that copying the two
// under separate locks would let a concurrent Buy produce.
func (b *Broker) captureStateLocked() *Snapshot {
	receipts, nextID := b.ledger.snapshot()
	snap := &Snapshot{Receipts: receipts, NextID: nextID}
	if wallets := b.walletStore(); wallets != nil {
		snap.Balances = wallets.snapshotBalances()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, ds := range b.datasets {
		a := ds.engine.Accountant()
		if a == nil {
			continue
		}
		if snap.Accountants == nil {
			snap.Accountants = make(map[string]dp.State)
		}
		snap.Accountants[name] = a.Snapshot()
	}
	// Budget recovered for datasets that have not re-registered yet
	// must not be dropped on the floor by a compaction.
	for name, state := range b.restored {
		if snap.Accountants == nil {
			snap.Accountants = make(map[string]dp.State)
		}
		if _, ok := snap.Accountants[name]; !ok {
			snap.Accountants[name] = state
		}
	}
	return snap
}
