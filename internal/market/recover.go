package market

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"privrange/internal/dp"
)

// Recovery rebuilds the trading books from dir after a crash or clean
// shutdown: load the last compacted Snapshot, replay every WAL record
// it has not folded in, and resolve in-flight sales. The replay
// invariants, proved by the crash-point matrix in crashpoint_test.go:
//
//   - A sale's receipt record is its commit point. Debits and ε spends
//     of a sale whose receipt never became durable are NOT applied — the
//     crash struck between debit and release, the customer got nothing,
//     so the money stays theirs and the budget stays unspent.
//   - A debit/refund pair (a sale that failed after charging) nets to
//     zero through the same two float operations the live run performed,
//     keeping balances bit-identical to an uncrashed run.
//   - A spend-withheld record (a sale answered but withheld by the
//     per-customer cap) applies unconditionally: the live accountant was
//     charged even though no receipt ever commits the sale, and replay
//     must not refund budget the live run treats as spent.
//   - Receipts may arrive out of id order (concurrent sales in logs
//     written before id assignment and the receipt append shared a
//     critical section); replay enforces uniqueness and folds them in
//     id order rather than rejecting the log.
//   - Deposits are standalone and always apply.
//   - Records with Seq ≤ Snapshot.LastSeq are skipped: a crash between
//     compaction's snapshot rename and the log truncate must not
//     double-apply what the snapshot already holds.
//
// Money, ε and receipt ids all come out exactly-once: an acknowledged
// operation is always durable (the broker syncs before acking), and an
// unacknowledged one either fully applies (its commit record made it to
// disk) or leaves no trace.

// durability is the broker's attachment to a WAL directory.
type durability struct {
	dir string
	wal *WAL
	// sales numbers sales so a sale's debit, spend and receipt records
	// can be linked during replay. Seeded past the highest sale id
	// still unresolved in the recovered log, so a fresh sale can never
	// adopt (and accidentally commit) a crashed sale's debit.
	sales atomic.Uint64
	// compactBytes triggers a compaction once the log grows past it.
	compactBytes int64
}

// DurabilityOption tunes EnableDurability.
type DurabilityOption func(*durability)

// WithCompactionThreshold sets how many logged bytes accumulate before
// the WAL is folded into the snapshot (default 4 MiB). Tests use tiny
// thresholds to exercise compaction; zero or negative disables
// automatic compaction.
func WithCompactionThreshold(bytes int64) DurabilityOption {
	return func(d *durability) { d.compactBytes = bytes }
}

// readSnapshotFile loads dir's compacted snapshot, or returns an empty
// snapshot when none exists yet.
func readSnapshotFile(dir string) (*Snapshot, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFileName))
	if os.IsNotExist(err) {
		return &Snapshot{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("market: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("market: decode snapshot: %w", err)
	}
	return &snap, nil
}

// writeSnapshotFile atomically replaces dir's snapshot: write to a
// temp file, fsync it, rename over the target, fsync the directory so
// the rename itself is durable. A crash at any point leaves either the
// old snapshot or the new one, never a torn mix.
func writeSnapshotFile(dir string, snap *Snapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("market: encode snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, snapshotFileName+".tmp*")
	if err != nil {
		return fmt.Errorf("market: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("market: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("market: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("market: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotFileName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("market: rename snapshot: %w", err)
	}
	// The directory fsync is what makes the rename itself durable; a
	// failure here must fail the compaction (the caller then leaves the
	// WAL intact), not silently report a snapshot that power loss could
	// revert.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("market: open dir for snapshot fsync: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("market: fsync snapshot dir: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("market: close snapshot dir: %w", closeErr)
	}
	return nil
}

// replayed is the outcome of folding a WAL over a snapshot.
type replayed struct {
	receipts    []Receipt
	nextID      int64
	balances    map[string]float64
	accountants map[string]dp.State
	lastSeq     uint64
	maxSale     uint64
	applied     int
	truncated   int64
}

// replay folds the records (already truncated to the valid prefix)
// over the snapshot's state using the commit-record semantics above.
func replay(snap *Snapshot, records []WALRecord) (*replayed, error) {
	if err := validateSnapshotNumbers(snap); err != nil {
		return nil, err
	}
	out := &replayed{
		receipts:    append([]Receipt(nil), snap.Receipts...),
		nextID:      snap.NextID,
		balances:    make(map[string]float64, len(snap.Balances)),
		accountants: make(map[string]dp.State, len(snap.Accountants)),
		lastSeq:     snap.LastSeq,
	}
	for c, b := range snap.Balances {
		out.balances[c] = b
	}
	for d, s := range snap.Accountants {
		out.accountants[d] = s
	}
	// Pass 1: find each sale's outcome — committed (receipt durable) or
	// refunded (the live run rolled the debit back itself).
	committed := make(map[uint64]bool)
	refunded := make(map[uint64]bool)
	// Receipts journaled by concurrent sales can appear out of id order
	// in older logs (id assignment and the WAL append used to be
	// separate critical sections), so they are collected, checked for
	// uniqueness, and sorted by id at the end instead of being required
	// to arrive monotonically.
	var walReceipts []Receipt
	seenIDs := make(map[int64]bool)
	lastSeq := snap.LastSeq
	for _, r := range records {
		if r.Seq <= snap.LastSeq {
			continue // folded into the snapshot already
		}
		if r.Seq <= lastSeq {
			return nil, fmt.Errorf("market: wal sequence regressed: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		if r.Sale > out.maxSale {
			out.maxSale = r.Sale
		}
		switch r.Op {
		case opReceipt:
			if r.Sale != 0 {
				committed[r.Sale] = true
			}
		case opRefund:
			if r.Sale != 0 {
				refunded[r.Sale] = true
			}
		}
	}
	out.lastSeq = lastSeq
	// Pass 2: apply in sequence order.
	for _, r := range records {
		if r.Seq <= snap.LastSeq {
			continue
		}
		switch r.Op {
		case opDeposit:
			if r.Customer == "" || !isFinite(r.Amount) || r.Amount <= 0 {
				return nil, fmt.Errorf("market: wal record %d: invalid deposit %v for %q", r.Seq, r.Amount, r.Customer)
			}
			out.balances[r.Customer] += r.Amount
			out.applied++
		case opDebit:
			if !saleResolved(r.Sale, committed, refunded) {
				continue // in-flight at the crash: the customer keeps the money
			}
			if r.Customer == "" || !isFinite(r.Amount) || r.Amount < 0 {
				return nil, fmt.Errorf("market: wal record %d: invalid debit %v for %q", r.Seq, r.Amount, r.Customer)
			}
			out.balances[r.Customer] -= r.Amount
			out.applied++
		case opRefund:
			if r.Customer == "" || !isFinite(r.Amount) || r.Amount < 0 {
				return nil, fmt.Errorf("market: wal record %d: invalid refund %v for %q", r.Seq, r.Amount, r.Customer)
			}
			out.balances[r.Customer] += r.Amount
			out.applied++
		case opSpend:
			if !committed[r.Sale] {
				continue // never released, so no exposure to account
			}
			if err := applySpend(out, r); err != nil {
				return nil, err
			}
		case opSpendHeld:
			// A withheld sale's charge: the live accountant was debited
			// even though the answer was never released, so the spend
			// applies regardless of the sale's commit/refund fate.
			if err := applySpend(out, r); err != nil {
				return nil, err
			}
		case opReceipt:
			if r.Receipt == nil {
				return nil, fmt.Errorf("market: wal record %d: receipt op without a receipt", r.Seq)
			}
			rec := *r.Receipt
			if rec.ID <= snap.NextID {
				return nil, fmt.Errorf("market: wal record %d: receipt id %d not past the snapshot's %d", r.Seq, rec.ID, snap.NextID)
			}
			if seenIDs[rec.ID] {
				return nil, fmt.Errorf("market: wal record %d: duplicate receipt id %d", r.Seq, rec.ID)
			}
			if !isFinite(rec.Price) || !isFinite(rec.EpsilonPrime) || !isFinite(rec.Variance) {
				return nil, fmt.Errorf("market: wal record %d: receipt %d has non-finite price/ε/variance", r.Seq, rec.ID)
			}
			seenIDs[rec.ID] = true
			walReceipts = append(walReceipts, rec)
			if rec.ID > out.nextID {
				out.nextID = rec.ID
			}
			out.applied++
		default:
			return nil, fmt.Errorf("market: wal record %d: unknown op %q", r.Seq, r.Op)
		}
	}
	// Fold the replayed receipts in ledger (id) order; a torn tail in a
	// concurrent log can leave a gap, which Ledger.restore accepts.
	sort.Slice(walReceipts, func(i, j int) bool { return walReceipts[i].ID < walReceipts[j].ID })
	out.receipts = append(out.receipts, walReceipts...)
	for c, b := range out.balances {
		if !isFinite(b) || b < 0 {
			return nil, fmt.Errorf("market: replay left balance %v for %q", b, c)
		}
	}
	return out, nil
}

// applySpend validates and folds one ε-spend record (committed sale or
// withheld answer) into the replayed accountant state. Like a balance,
// the running Σε′ must stay finite: finite records can still sum to
// +Inf, which no snapshot can encode.
func applySpend(out *replayed, r WALRecord) error {
	if r.Dataset == "" || !isFinite(r.Epsilon) || r.Epsilon < 0 {
		return fmt.Errorf("market: wal record %d: invalid spend %v on %q", r.Seq, r.Epsilon, r.Dataset)
	}
	s := out.accountants[r.Dataset]
	s.Spent += r.Epsilon
	if !isFinite(s.Spent) {
		return fmt.Errorf("market: wal record %d: spend %v on %q overflows Σε′", r.Seq, r.Epsilon, r.Dataset)
	}
	s.Queries++
	out.accountants[r.Dataset] = s
	out.applied++
	return nil
}

// saleResolved reports whether a sale's fate is on disk: committed or
// explicitly refunded. Unresolved debits are in-flight crashes and are
// not applied.
func saleResolved(sale uint64, committed, refunded map[uint64]bool) bool {
	return sale != 0 && (committed[sale] || refunded[sale])
}

// EnableDurability turns on write-ahead logging rooted at dir,
// recovering any state a previous incarnation left there. It must run
// before the broker serves anything — restoring over live books would
// fork the record — and after AttachWallets when balances are expected.
// Datasets registered before or after this call both get their
// recovered Σε′: already-registered accountants are restored now,
// later ones at Register time.
func (b *Broker) EnableDurability(dir string, opts ...DurabilityOption) error {
	if dir == "" {
		return fmt.Errorf("market: durability needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("market: durability dir: %w", err)
	}
	snap, err := readSnapshotFile(dir)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("market: read wal: %w", err)
	}
	records, validLen := decodeWAL(raw)
	rep, err := replay(snap, records)
	if err != nil {
		return err
	}
	rep.truncated = int64(len(raw)) - validLen

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.durable != nil {
		return fmt.Errorf("market: durability already enabled")
	}
	if b.ledger.Purchases() > 0 {
		return fmt.Errorf("market: refusing to enable durability on a broker that already recorded %d sales", b.ledger.Purchases())
	}
	if len(rep.balances) > 0 && b.wallets == nil {
		return fmt.Errorf("market: recovered state carries balances but broker has no wallets attached")
	}
	if err := b.ledger.restore(rep.receipts, rep.nextID); err != nil {
		return err
	}
	if b.wallets != nil {
		if err := b.wallets.restoreBalances(rep.balances); err != nil {
			return err
		}
	}
	d := &durability{
		dir:          dir,
		compactBytes: 4 << 20,
	}
	d.sales.Store(rep.maxSale)
	for _, opt := range opts {
		opt(d)
	}
	if b.restored == nil {
		b.restored = make(map[string]dp.State, len(rep.accountants))
	}
	for name, state := range rep.accountants {
		b.restored[name] = state
	}
	// Accountants registered before durability was enabled restore now.
	for name, ds := range b.datasets {
		state, ok := b.restored[name]
		a := ds.engine.Accountant()
		if !ok || a == nil {
			continue
		}
		if err := a.Restore(state); err != nil {
			return fmt.Errorf("market: dataset %q: %w", name, err)
		}
		delete(b.restored, name)
	}
	wal, err := openWAL(dir, validLen, rep.lastSeq)
	if err != nil {
		return err
	}
	wal.tele = func() *Metrics { return b.tele.Load() }
	d.wal = wal
	b.durable = d
	if m := b.tele.Load(); m != nil {
		m.noteWALRecovery(rep.applied, rep.truncated)
	}
	return nil
}

// CloseDurability compacts the log into the snapshot and closes the
// WAL. Call on clean shutdown; the next boot then recovers from the
// snapshot alone. Safe to call once; the broker refuses further
// mutations afterwards.
func (b *Broker) CloseDurability() error {
	d := b.durableStore()
	if d == nil {
		return nil
	}
	compactErr := b.Compact()
	if err := d.wal.Close(); err != nil {
		return err
	}
	return compactErr
}

// Compact folds the current books into the on-disk snapshot and
// truncates the WAL. It runs automatically as the log grows; exposed
// for tests and operational tooling. No-op without durability.
func (b *Broker) Compact() error {
	d := b.durableStore()
	if d == nil {
		return nil
	}
	// The exclusive commit lock waits out in-flight sales, so the books
	// and the log agree; Sync drains anything the last sale buffered.
	b.commitMu.Lock()
	defer b.commitMu.Unlock()
	if err := d.wal.Sync(); err != nil {
		return err
	}
	snap := b.captureStateLocked()
	snap.LastSeq = d.wal.lastSeq()
	if err := writeSnapshotFile(d.dir, snap); err != nil {
		return err
	}
	if err := d.wal.reset(); err != nil {
		return err
	}
	if m := b.tele.Load(); m != nil {
		m.noteWALCompaction()
	}
	return nil
}

// maybeCompact triggers a compaction when the log outgrew the
// threshold. Called after an operation releases the shared commit
// lock; a failed compaction poisons nothing — the log keeps growing
// and the next operation retries.
func (b *Broker) maybeCompact() {
	d := b.durableStore()
	if d == nil || d.compactBytes <= 0 {
		return
	}
	if d.wal.loggedBytes() < d.compactBytes {
		return
	}
	b.Compact() //nolint:errcheck — next op retries; the WAL remains authoritative
}

// validateSnapshotNumbers rejects snapshots whose money or ε fields
// are corrupt: NaN or ±Inf would restore "successfully" under a plain
// `< 0` check and then poison every later comparison.
func validateSnapshotNumbers(snap *Snapshot) error {
	for d, s := range snap.Accountants {
		if !isFinite(s.Spent) || s.Spent < 0 || s.Queries < 0 {
			return fmt.Errorf("market: snapshot accountant for %q has invalid state (spent=%v queries=%d)", d, s.Spent, s.Queries)
		}
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
