package market

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"privrange/internal/core"
	"privrange/internal/dataset"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

// durEngine builds a small, fast, deterministic engine with a privacy
// accountant attached — durability tests care about the books, not the
// estimates, so the series stays tiny.
func durEngine(t *testing.T, p dataset.Pollutant, seed int64, budget float64, opts ...core.Option) (*core.Engine, int) {
	t.Helper()
	series, err := dataset.GenerateSeries(p, dataset.GenerateConfig{Seed: seed, Records: 120})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	acct, err := dp.NewAccountant(budget)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(nw, append([]core.Option{core.WithSeed(seed), core.WithAccountant(acct)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, series.Len()
}

// durBroker builds a prepaid broker with durability rooted at dir and
// one accountant-backed dataset — durEngine's ozone engine under the
// given budget and engine options — mirroring the production
// construction order: wallets → EnableDurability → Register.
func durBroker(t *testing.T, dir string, budget float64, engOpts []core.Option, opts ...DurabilityOption) *Broker {
	t.Helper()
	// C=100 keeps prices in single digits for the tiny test series, so
	// modest deposits fund several sales.
	b, err := NewBroker(pricing.InverseVariance{C: 100})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachWallets(&Wallets{})
	if err := b.EnableDurability(dir, opts...); err != nil {
		t.Fatal(err)
	}
	eng, n := durEngine(t, dataset.Ozone, 7, budget, engOpts...)
	if err := b.Register("ozone", eng, n, 4); err != nil {
		t.Fatal(err)
	}
	return b
}

func durBuy(t *testing.T, b *Broker, customer string) *Response {
	t.Helper()
	resp, err := b.Buy(Request{
		Op: "buy", Dataset: "ozone", Customer: customer,
		L: 0, U: 200, Alpha: 0.2, Delta: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// stateOf captures the broker's full durable state at one consistent
// point, the way compaction does: in-flight sales finish first.
func stateOf(t *testing.T, b *Broker) *Snapshot {
	t.Helper()
	b.commitMu.Lock()
	defer b.commitMu.Unlock()
	return b.captureStateLocked()
}

// TestDurableRoundTrip: trade, shut down cleanly, recover into a fresh
// broker — money, receipts and released ε come back bit-identical.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("alice", 50); err != nil {
		t.Fatal(err)
	}
	r1 := durBuy(t, b, "alice")
	r2 := durBuy(t, b, "alice")
	before := stateOf(t, b)
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	rb := durBroker(t, dir, 0, nil)
	after := stateOf(t, rb)
	if len(after.Receipts) != 2 || after.Receipts[0] != *r1.Receipt || after.Receipts[1] != *r2.Receipt {
		t.Fatalf("receipts did not survive: %+v", after.Receipts)
	}
	if got, want := after.Balances["alice"], before.Balances["alice"]; got != want {
		t.Fatalf("balance %v after recovery, want %v", got, want)
	}
	if got, want := after.Accountants["ozone"].Spent, r1.EpsilonPrime+r2.EpsilonPrime; got != want {
		t.Fatalf("recovered Σε′ %v, want %v", got, want)
	}
	if got := after.Accountants["ozone"].Queries; got != 2 {
		t.Fatalf("recovered query count %d, want 2", got)
	}
	if rb.Ledger().Purchases() != 2 {
		t.Fatalf("ledger has %d purchases, want 2", rb.Ledger().Purchases())
	}
}

// TestRecoverEmptyDir: enabling durability on a directory with no prior
// state is a clean start, and an empty (zero-length) WAL file recovers
// to the same.
func TestRecoverEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	b := durBroker(t, dir, 0, nil)
	if n := b.Ledger().Purchases(); n != 0 {
		t.Fatalf("empty WAL recovered %d purchases", n)
	}
	if err := b.Deposit("a", 5); err != nil {
		t.Fatalf("broker not usable after empty recovery: %v", err)
	}
}

// walPath appends raw bytes to dir's log for corruption tests.
func appendWAL(t *testing.T, dir string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// frameRecord encodes one record the way the WAL does.
func frameRecord(t *testing.T, r WALRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return frame(payload)
}

// TestRecoverTrailingGarbage: a torn tail (the bytes a crash left
// half-written) is truncated at the last valid record and the preceding
// records replay normally.
func TestRecoverTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "alice", Amount: 40}))
	appendWAL(t, dir, []byte{0x00, 0x00, 0x00, 0x10, 0xde, 0xad}) // header promises 16 bytes, dies after 2

	b := durBroker(t, dir, 0, nil)
	if got := b.walletStore().Balance("alice"); got != 40 {
		t.Fatalf("balance %v, want 40 (valid prefix applied, garbage dropped)", got)
	}
	// The tail must be physically gone: the next append lands where the
	// garbage was, and a second recovery still sees a clean log.
	if err := b.Deposit("alice", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rb := durBroker(t, dir, 0, nil)
	if got := rb.walletStore().Balance("alice"); got != 42 {
		t.Fatalf("balance %v after second recovery, want 42", got)
	}
}

// TestRecoverChecksumMismatchMidFile: a flipped byte in the middle of
// the log invalidates that record AND everything after it — a valid-
// looking frame past a corrupt one is not trusted (its provenance is
// unknowable once the sequence is broken).
func TestRecoverChecksumMismatchMidFile(t *testing.T) {
	dir := t.TempDir()
	first := frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 10})
	second := frameRecord(t, WALRecord{Seq: 2, Op: opDeposit, Customer: "a", Amount: 20})
	third := frameRecord(t, WALRecord{Seq: 3, Op: opDeposit, Customer: "a", Amount: 30})
	second[walHeaderSize+2] ^= 0xff // corrupt the payload; CRC now mismatches
	appendWAL(t, dir, first)
	appendWAL(t, dir, second)
	appendWAL(t, dir, third)

	b := durBroker(t, dir, 0, nil)
	if got := b.walletStore().Balance("a"); got != 10 {
		t.Fatalf("balance %v, want 10 (only the prefix before the corruption)", got)
	}
}

// TestRecoverSnapshotPlusWAL: records at or below the snapshot's
// LastSeq are already folded in and must not double-apply — the state a
// crash between compaction's snapshot rename and log truncate leaves.
func TestRecoverSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{
		Balances: map[string]float64{"a": 100},
		LastSeq:  2,
	}
	if err := writeSnapshotFile(dir, snap); err != nil {
		t.Fatal(err)
	}
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 60}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDeposit, Customer: "a", Amount: 40}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opDeposit, Customer: "a", Amount: 5}))

	b := durBroker(t, dir, 0, nil)
	if got := b.walletStore().Balance("a"); got != 105 {
		t.Fatalf("balance %v, want 105 (snapshot 100 + only seq 3)", got)
	}
}

// TestReplaySkipsDanglingSale: a debit and spend with no receipt is a
// sale that crashed before release — the customer keeps the money and
// the budget stays unspent. A refunded sale nets to zero.
func TestReplaySkipsDanglingSale(t *testing.T) {
	dir := t.TempDir()
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 50}))
	// Sale 1: dangling (no commit record).
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDebit, Sale: 1, Customer: "a", Amount: 7}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opSpend, Sale: 1, Dataset: "ozone", Epsilon: 0.5}))
	// Sale 2: explicitly refunded.
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 4, Op: opDebit, Sale: 2, Customer: "a", Amount: 9}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 5, Op: opRefund, Sale: 2, Customer: "a", Amount: 9}))

	b := durBroker(t, dir, 0, nil)
	if got := b.walletStore().Balance("a"); got != 50 {
		t.Fatalf("balance %v, want 50 (dangling debit skipped, refund netted)", got)
	}
	snap := stateOf(t, b)
	if s := snap.Accountants["ozone"]; s.Spent != 0 || s.Queries != 0 {
		t.Fatalf("uncommitted spend leaked into the accountant: %+v", s)
	}
	// A fresh sale must not adopt sale id 1 or 2 and thereby commit the
	// dangling debit on the NEXT replay.
	if err := b.Deposit("a", 50); err != nil {
		t.Fatal(err)
	}
	durBuy(t, b, "a")
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rb := durBroker(t, dir, 0, nil)
	if rb.Ledger().Purchases() != 1 {
		t.Fatalf("purchases %d after second recovery, want 1", rb.Ledger().Purchases())
	}
}

// TestEnableDurabilityRefusals: durability must attach before the
// broker serves (restoring over live books forks the record), only
// once, and never drop recovered money on the floor.
func TestEnableDurabilityRefusals(t *testing.T) {
	t.Run("already served", func(t *testing.T) {
		b, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
		if _, err := b.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "c", L: 0, U: 200, Alpha: 0.2, Delta: 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := b.EnableDurability(t.TempDir()); err == nil {
			t.Fatal("enabling durability on a broker with recorded sales must fail")
		}
	})
	t.Run("twice", func(t *testing.T) {
		dir := t.TempDir()
		b := durBroker(t, dir, 0, nil)
		if err := b.EnableDurability(dir); err == nil {
			t.Fatal("second EnableDurability must fail")
		}
	})
	t.Run("balances without wallets", func(t *testing.T) {
		dir := t.TempDir()
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 5}))
		b, err := NewBroker(pricing.InverseVariance{C: 1e9})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.EnableDurability(dir); err == nil {
			t.Fatal("recovered balances with no wallets attached must fail, not vanish")
		}
	})
}

// TestGroupCommit: one sale journals three records (debit, spend,
// receipt) but pays exactly one fsync.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("a", 50); err != nil {
		t.Fatal(err)
	}
	var appends, fsyncs int
	b.durableStore().wal.hook = func(p walCrashPoint, n int) (int, bool) {
		switch p {
		case crashAppend:
			appends++
		case crashSyncFsync:
			fsyncs++
		}
		return 0, false
	}
	durBuy(t, b, "a")
	if appends != 3 || fsyncs != 1 {
		t.Fatalf("one sale cost %d appends and %d fsyncs, want 3 and 1 (group commit)", appends, fsyncs)
	}
}

// TestCompaction: a tiny threshold forces the log to fold into the
// snapshot mid-run; the books still recover exactly.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil, WithCompactionThreshold(64))
	m := NewMetrics(telemetry.NewRegistry())
	b.SetTelemetry(m)
	if err := b.Deposit("a", 100); err != nil {
		t.Fatal(err)
	}
	var receipts []Receipt
	for i := 0; i < 3; i++ {
		receipts = append(receipts, *durBuy(t, b, "a").Receipt)
	}
	if got := m.walCompactions.Value(); got == 0 {
		t.Fatal("no compaction ran despite the 64-byte threshold")
	}
	want := stateOf(t, b)
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	// After a clean close the log is empty: everything lives in the
	// snapshot.
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		t.Fatalf("log holds %d bytes after clean close, want 0 (compacted)", len(raw))
	}
	rb := durBroker(t, dir, 0, nil, WithCompactionThreshold(64))
	got := stateOf(t, rb)
	if got.Balances["a"] != want.Balances["a"] {
		t.Fatalf("balance %v, want %v", got.Balances["a"], want.Balances["a"])
	}
	if len(got.Receipts) != len(receipts) {
		t.Fatalf("%d receipts, want %d", len(got.Receipts), len(receipts))
	}
	for i := range receipts {
		if got.Receipts[i] != receipts[i] {
			t.Fatalf("receipt %d diverged: %+v vs %+v", i, got.Receipts[i], receipts[i])
		}
	}
	if got.Accountants["ozone"] != want.Accountants["ozone"] {
		t.Fatalf("accountant %+v, want %+v", got.Accountants["ozone"], want.Accountants["ozone"])
	}
}

// TestDecodeWAL exercises the frame scanner's stop conditions directly.
func TestDecodeWAL(t *testing.T) {
	good := frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 1})
	cases := []struct {
		name  string
		raw   []byte
		want  int
		valid int64
	}{
		{"empty", nil, 0, 0},
		{"one record", good, 1, int64(len(good))},
		{"short header", append(append([]byte{}, good...), 0x00, 0x01), 1, int64(len(good))},
		{"absurd length", append(append([]byte{}, good...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), 1, int64(len(good))},
		{"zero length", append(append([]byte{}, good...), 0, 0, 0, 0, 0, 0, 0, 0), 1, int64(len(good))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, valid := decodeWAL(tc.raw)
			if len(recs) != tc.want || valid != tc.valid {
				t.Fatalf("decodeWAL: %d records valid to %d, want %d to %d", len(recs), valid, tc.want, tc.valid)
			}
		})
	}
	t.Run("bad crc", func(t *testing.T) {
		bad := append([]byte{}, good...)
		binary.BigEndian.PutUint32(bad[4:8], crc32.ChecksumIEEE([]byte("nope")))
		recs, valid := decodeWAL(bad)
		if len(recs) != 0 || valid != 0 {
			t.Fatalf("corrupt checksum accepted: %d records", len(recs))
		}
	})
}

// TestReplayRejectsCorruptValues: replay refuses records whose money or
// ε fields are NaN/Inf/negative rather than folding poison into the
// books.
func TestReplayRejectsCorruptValues(t *testing.T) {
	cases := []WALRecord{
		{Seq: 1, Op: opDeposit, Customer: "a", Amount: math.NaN()},
		{Seq: 1, Op: opDeposit, Customer: "a", Amount: math.Inf(1)},
		{Seq: 1, Op: opDeposit, Customer: "a", Amount: -3},
		{Seq: 1, Op: opDeposit, Customer: "", Amount: 3},
		{Seq: 1, Op: opRefund, Sale: 1, Customer: "a", Amount: math.NaN()},
		{Seq: 1, Op: "warp", Customer: "a", Amount: 3},
		{Seq: 1, Op: opReceipt, Sale: 1},
	}
	for _, rec := range cases {
		if _, err := replay(&Snapshot{}, []WALRecord{rec}); err == nil {
			t.Errorf("replay accepted corrupt record %+v", rec)
		}
	}
	// A sequence regression (records out of order) is corruption too.
	_, err := replay(&Snapshot{}, []WALRecord{
		{Seq: 2, Op: opDeposit, Customer: "a", Amount: 1},
		{Seq: 1, Op: opDeposit, Customer: "a", Amount: 1},
	})
	if err == nil {
		t.Error("replay accepted a sequence regression")
	}
	// Finite spends whose running Σε′ overflows to +Inf: no snapshot
	// could encode the result, so the log would never compact again.
	_, err = replay(&Snapshot{}, []WALRecord{
		{Seq: 1, Op: opSpendHeld, Sale: 1, Dataset: "ozone", Epsilon: 1e308},
		{Seq: 2, Op: opSpendHeld, Sale: 2, Dataset: "ozone", Epsilon: 1e308},
	})
	if err == nil {
		t.Error("replay accepted a Σε′ that overflows to +Inf")
	}
}

// walReceipt builds a minimal valid receipt for hand-crafted logs.
func walReceipt(id int64, customer string, price, eps float64) *Receipt {
	return &Receipt{ID: id, Customer: customer, Dataset: "ozone", U: 200, Alpha: 0.2, Delta: 0.5, Variance: 1, Price: price, EpsilonPrime: eps, Coverage: 1}
}

// TestReplayOutOfOrderReceipts: two concurrent sales can journal their
// receipts out of id order (id assignment and the WAL append were
// separate critical sections). Recovery must fold such a log in id
// order instead of rejecting it — the regression that permanently
// locked a broker out of its own valid state.
func TestReplayOutOfOrderReceipts(t *testing.T) {
	dir := t.TempDir()
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 50}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDebit, Sale: 1, Customer: "a", Amount: 5}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opDebit, Sale: 2, Customer: "a", Amount: 7}))
	// Sale 2 wins the journaling race: its receipt (id 2) lands first.
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 4, Op: opReceipt, Sale: 2, Receipt: walReceipt(2, "a", 7, 0.4)}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 5, Op: opSpend, Sale: 1, Dataset: "ozone", Epsilon: 0.3}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 6, Op: opReceipt, Sale: 1, Receipt: walReceipt(1, "a", 5, 0.3)}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 7, Op: opSpend, Sale: 2, Dataset: "ozone", Epsilon: 0.4}))

	b := durBroker(t, dir, 0, nil)
	if got := b.Ledger().Purchases(); got != 2 {
		t.Fatalf("recovered %d purchases, want 2", got)
	}
	recs := b.Ledger().Receipts()
	if recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("recovered receipt order [%d %d], want [1 2]", recs[0].ID, recs[1].ID)
	}
	if got := b.walletStore().Balance("a"); got != 38 {
		t.Fatalf("balance %v, want 38", got)
	}
	snap := stateOf(t, b)
	if s := snap.Accountants["ozone"]; !closeEnough(s.Spent, 0.7) || s.Queries != 2 {
		t.Fatalf("accountant %+v, want {0.7, 2}", s)
	}
	// The id sequence continues past the replayed maximum.
	if err := b.Deposit("a", 50); err != nil {
		t.Fatal(err)
	}
	if resp := durBuy(t, b, "a"); resp.Receipt.ID != 3 {
		t.Fatalf("next receipt id %d, want 3", resp.Receipt.ID)
	}
}

// TestReplayReceiptGap: a torn tail in a concurrent log can lose a
// lower-id receipt while a higher-id one survives. The surviving sale
// must recover (its customer was possibly acked) and the lost sale's
// debit must dangle harmlessly.
func TestReplayReceiptGap(t *testing.T) {
	dir := t.TempDir()
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 50}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDebit, Sale: 1, Customer: "a", Amount: 5}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opDebit, Sale: 2, Customer: "a", Amount: 7}))
	appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 4, Op: opReceipt, Sale: 2, Receipt: walReceipt(2, "a", 7, 0.4)}))
	// Sale 1's receipt (id 1) was torn off the tail.

	b := durBroker(t, dir, 0, nil)
	if got := b.Ledger().Purchases(); got != 1 {
		t.Fatalf("recovered %d purchases, want 1", got)
	}
	if got := b.walletStore().Balance("a"); got != 43 {
		t.Fatalf("balance %v, want 43 (sale 2 committed, sale 1 dangling)", got)
	}
	if err := b.Deposit("a", 10); err != nil {
		t.Fatal(err)
	}
	if resp := durBuy(t, b, "a"); resp.Receipt.ID != 3 {
		t.Fatalf("next receipt id %d, want 3 (past the replayed maximum)", resp.Receipt.ID)
	}
}

// TestConcurrentDurableBuysRecover hammers the durable buy path from
// many goroutines, then recovers crash-style (no clean close, straight
// from the live WAL bytes). Before receipt-id assignment and the WAL
// append shared a critical section, two racing sales could journal
// receipts out of id order and recovery would refuse the valid log.
func TestConcurrentDurableBuysRecover(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	const customers, buysEach = 4, 3
	deposited := 0.0
	for c := 0; c < customers; c++ {
		if err := b.Deposit(fmt.Sprintf("c%d", c), 100); err != nil {
			t.Fatal(err)
		}
		deposited += 100
	}
	var wg sync.WaitGroup
	for c := 0; c < customers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < buysEach; i++ {
				if _, err := b.Buy(Request{
					Op: "buy", Dataset: "ozone", Customer: fmt.Sprintf("c%d", c),
					L: 0, U: 200, Alpha: 0.2, Delta: 0.5,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// No CloseDurability: recovery starts from whatever the group
	// commits made durable, the way a kill -9 leaves it.
	rb := durBroker(t, dir, 0, nil)
	if got, want := rb.Ledger().Purchases(), customers*buysEach; got != want {
		t.Fatalf("recovered %d purchases, want %d", got, want)
	}
	recs := rb.Ledger().Receipts()
	for i, r := range recs {
		if r.ID != int64(i)+1 {
			t.Fatalf("receipt %d has id %d, want %d (unique, gapless, id-ordered)", i, r.ID, i+1)
		}
	}
	// Money conservation: every coin is either still in a wallet or in
	// the ledger's revenue.
	total := rb.Ledger().Revenue()
	for _, c := range rb.walletStore().Customers() {
		total += rb.walletStore().Balance(c)
	}
	if !closeEnough(total, deposited) {
		t.Fatalf("recovered books hold %v, deposited %v", total, deposited)
	}
}

// TestReplayRejectsDuplicateReceiptIDs: order tolerance must not admit
// the same receipt id twice.
func TestReplayRejectsDuplicateReceiptIDs(t *testing.T) {
	_, err := replay(&Snapshot{}, []WALRecord{
		{Seq: 1, Op: opReceipt, Sale: 1, Receipt: walReceipt(1, "a", 5, 0.3)},
		{Seq: 2, Op: opReceipt, Sale: 2, Receipt: walReceipt(1, "b", 7, 0.4)},
	})
	if err == nil {
		t.Fatal("replay accepted a duplicate receipt id")
	}
}

// TestReplayAppliesWithheldSpend: a spend-withheld record applies even
// though its sale never commits — with a refund (the acked rejection)
// and without one (a crash mid-rollback, where the conservative charge
// still stands).
func TestReplayAppliesWithheldSpend(t *testing.T) {
	t.Run("refunded", func(t *testing.T) {
		dir := t.TempDir()
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 50}))
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDebit, Sale: 1, Customer: "a", Amount: 5}))
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opSpendHeld, Sale: 1, Dataset: "ozone", Epsilon: 0.3}))
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 4, Op: opRefund, Sale: 1, Customer: "a", Amount: 5}))

		b := durBroker(t, dir, 0, nil)
		if got := b.walletStore().Balance("a"); got != 50 {
			t.Fatalf("balance %v, want 50 (debit/refund nets to zero)", got)
		}
		snap := stateOf(t, b)
		if s := snap.Accountants["ozone"]; !closeEnough(s.Spent, 0.3) || s.Queries != 1 {
			t.Fatalf("withheld spend lost on replay: %+v, want {0.3, 1}", s)
		}
	})
	t.Run("dangling", func(t *testing.T) {
		dir := t.TempDir()
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 1, Op: opDeposit, Customer: "a", Amount: 50}))
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 2, Op: opDebit, Sale: 1, Customer: "a", Amount: 5}))
		appendWAL(t, dir, frameRecord(t, WALRecord{Seq: 3, Op: opSpendHeld, Sale: 1, Dataset: "ozone", Epsilon: 0.3}))

		b := durBroker(t, dir, 0, nil)
		if got := b.walletStore().Balance("a"); got != 50 {
			t.Fatalf("balance %v, want 50 (unresolved debit skipped)", got)
		}
		snap := stateOf(t, b)
		if s := snap.Accountants["ozone"]; !closeEnough(s.Spent, 0.3) || s.Queries != 1 {
			t.Fatalf("withheld spend lost on replay: %+v, want {0.3, 1}", s)
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		if _, err := replay(&Snapshot{}, []WALRecord{{Seq: 1, Op: opSpendHeld, Sale: 1, Dataset: "", Epsilon: 0.3}}); err == nil {
			t.Fatal("replay accepted a spend-withheld record with no dataset")
		}
	})
}

// TestWithheldSpendSurvivesRestart: the live accountant is charged for
// a sale the per-customer cap withholds; a restart must not refund that
// budget — recovered Σε′ must equal the live run's.
func TestWithheldSpendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("alice", 50); err != nil {
		t.Fatal(err)
	}
	r1 := durBuy(t, b, "alice")
	// Cap at 1.5ε′: alice's second identical purchase is answered (and
	// charged) but withheld.
	if err := b.SetCustomerPrivacyCap(1.5 * r1.EpsilonPrime); err != nil {
		t.Fatal(err)
	}
	_, err := b.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "alice", L: 0, U: 200, Alpha: 0.2, Delta: 0.5})
	if err == nil {
		t.Fatal("buy past the per-customer cap released an answer")
	}
	live := stateOf(t, b)
	if s := live.Accountants["ozone"]; !closeEnough(s.Spent, 2*r1.EpsilonPrime) || s.Queries != 2 {
		t.Fatalf("live accountant %+v, want the withheld charge included (%v, 2)", s, 2*r1.EpsilonPrime)
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	rb := durBroker(t, dir, 0, nil)
	got := stateOf(t, rb)
	if s, want := got.Accountants["ozone"], live.Accountants["ozone"]; !closeEnough(s.Spent, want.Spent) || s.Queries != want.Queries {
		t.Fatalf("recovered accountant %+v, live %+v: restart refunded a withheld charge", s, want)
	}
	if gotBal, want := got.Balances["alice"], live.Balances["alice"]; !closeEnough(gotBal, want) {
		t.Fatalf("recovered balance %v, live %v", gotBal, want)
	}
	if rb.Ledger().Purchases() != 1 {
		t.Fatalf("recovered %d purchases, want 1 (the withheld sale must not commit)", rb.Ledger().Purchases())
	}
}

// TestDurableCacheHitsChargeNothing: answers served from the answer
// cache charge the accountant nothing, so they journal no spend, and a
// restart recovers exactly the live Σε′. Journaling a spend per sale
// instead would replay up to five charges into a budget of 1.5 and
// refuse to boot with "spent exceeds cap".
func TestDurableCacheHitsChargeNothing(t *testing.T) {
	probe, _ := durEngine(t, dataset.Ozone, 7, 0)
	a, err := probe.Answer(estimator.Query{L: 0, U: 200}, estimator.Accuracy{Alpha: 0.2, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.5 * a.Plan.EpsilonPrime
	dir := t.TempDir()
	cache := []core.Option{core.WithAnswerCache(true)}
	b := durBroker(t, dir, budget, cache)
	if err := b.Deposit("alice", 50); err != nil {
		t.Fatal(err)
	}
	first := durBuy(t, b, "alice")
	for i := 0; i < 3; i++ {
		if again := durBuy(t, b, "alice"); again.Value != first.Value {
			t.Fatalf("sale %d was not served from the cache", i+2)
		}
	}
	// A cache hit withheld by the per-customer cap charges nothing
	// either: alice's receipts already carry 4ε′.
	if err := b.SetCustomerPrivacyCap(4.5 * first.EpsilonPrime); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "alice", L: 0, U: 200, Alpha: 0.2, Delta: 0.5}); err == nil {
		t.Fatal("buy past the per-customer cap released an answer")
	}
	// Recover from the log alone, as after a crash: the live broker's
	// log closes without compacting, so every sale's records replay.
	live := stateOf(t, b).Accountants["ozone"]
	if err := b.durableStore().wal.Close(); err != nil {
		t.Fatal(err)
	}
	rb := durBroker(t, dir, budget, cache)
	if got := stateOf(t, rb).Accountants["ozone"]; math.Float64bits(got.Spent) != math.Float64bits(live.Spent) {
		t.Fatalf("recovered Σε′ %v, live %v", got.Spent, live.Spent)
	}
	if rb.Ledger().Purchases() != 4 {
		t.Fatalf("recovered %d purchases, want 4", rb.Ledger().Purchases())
	}
	if err := rb.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHitNeverOutrunsItsCharge: a cached answer is servable to
// every buyer the moment the engine stores it, but its ε′ is journaled
// with the sale that charged for it. Every prefix of the log is a state
// a crash can leave behind, and in each one the recovered Σε′ must
// cover every release a durable receipt hands out — so no cache hit's
// receipt may reach the log ahead of the spend of the release it
// re-serves. alice buys a round of distinct ranges as one batch sale
// while bob buys the same ranges one at a time, so each range is
// charged to whichever of them gets there first and served from the
// cache to the other.
func TestCacheHitNeverOutrunsItsCharge(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, []core.Option{core.WithAnswerCache(true)})
	for _, c := range []string{"alice", "bob"} {
		if err := b.Deposit(c, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	const ranges, rounds = 16, 16
	for round := 0; round < rounds; round++ {
		// A new accuracy per round misses every range cached so far.
		reqs := make([]Request, ranges)
		for i := range reqs {
			reqs[i] = Request{
				Op: "buy", Dataset: "ozone", Customer: "alice",
				L: float64(i), U: float64(100 + i), Alpha: 0.2 + 0.01*float64(round), Delta: 0.5,
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ranges - 1; i >= 0; i-- {
				r := reqs[i]
				r.Customer = "bob"
				if _, err := b.Buy(r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		results := b.sellBatch(append([]Request(nil), reqs...), nil)
		wg.Wait()
		for i, res := range results {
			if res.err != nil {
				t.Fatalf("round %d: alice's sale %d: %v", round, i, res.err)
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	records, _ := decodeWAL(raw)
	type release struct{ l, u, alpha, delta float64 }
	// Only a receipt raises what a prefix must cover, and the records
	// after one only add commits and spends, so the prefixes that end
	// in a receipt are the ones to check.
	for n := 1; n <= len(records); n++ {
		if records[n-1].Op != opReceipt {
			continue
		}
		rep, err := replay(&Snapshot{}, records[:n])
		if err != nil {
			t.Fatalf("prefix of %d records: %v", n, err)
		}
		// Every distinct (range, accuracy) among the durable receipts
		// is at least one release this crash state has handed out.
		released := make(map[release]float64)
		for _, r := range rep.receipts {
			released[release{r.L, r.U, r.Alpha, r.Delta}] = r.EpsilonPrime
		}
		need := 0.0
		for _, eps := range released {
			need += eps
		}
		if got := rep.accountants["ozone"].Spent; got < need && !closeEnough(got, need) {
			t.Fatalf("crash after %d of %d records recovers Σε′ %v, but its receipts released %d answers worth %v",
				n, len(records), got, len(released), need)
		}
	}
}

// TestDepositCreditAfterDurable: the balance must not move before the
// grant's fsync returns — the old credit-first order let a concurrent
// debit consume undurable funds, and the rollback then drove the
// balance negative.
func TestDepositCreditAfterDurable(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	var atFsync float64
	b.durableStore().wal.hook = func(p walCrashPoint, n int) (int, bool) {
		if p == crashSyncFsync {
			// Mid-deposit, pre-fsync: the credit must not be visible yet.
			atFsync = b.walletStore().Balance("a")
			return 0, true // and the fsync dies
		}
		return 0, false
	}
	if err := b.Deposit("a", 50); !errors.Is(err, errWALCrashed) {
		t.Fatalf("deposit over a dying WAL returned %v, want errWALCrashed", err)
	}
	if atFsync != 0 {
		t.Fatalf("balance was %v before the grant was durable, want 0", atFsync)
	}
	if got := b.walletStore().Balance("a"); got != 0 {
		t.Fatalf("failed deposit left balance %v, want 0", got)
	}
}

// TestDepositRejectsNonFinite: a NaN grant passes a plain `<= 0` check
// but would journal a record replay refuses; it must be rejected before
// anything is written. So must a finite grant that would overflow the
// balance to +Inf: replay refuses such a log, and the broker could not
// restart.
func TestDepositRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	for _, amount := range []float64{math.NaN(), math.Inf(1)} {
		if err := b.Deposit("a", amount); err == nil {
			t.Fatalf("deposit of %v accepted", amount)
		}
	}
	if err := b.Deposit("a", 1e308); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("a", 1e308); err == nil {
		t.Fatal("a deposit overflowing the balance to +Inf was accepted")
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rb := durBroker(t, dir, 0, nil)
	defer rb.CloseDurability()
	if got := rb.walletStore().Balance("a"); got != 1e308 {
		t.Fatalf("recovered balance %v, want 1e308", got)
	}
}

// TestConcurrentDepositsRecover: two concurrent deposits that together
// would overflow a balance must not both reach the log. One is acked
// and one refused, and a recovery from the directory as a crash leaves
// it (no clean shutdown, so no compaction folds the records away)
// reproduces the live balance.
func TestConcurrentDepositsRecover(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		b := fuzzBroker(t)
		if err := b.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = b.Deposit("c", 1e308)
			}(i)
		}
		wg.Wait()
		if (errs[0] == nil) == (errs[1] == nil) {
			t.Fatalf("trial %d: deposit errors %v and %v, want exactly one acked", trial, errs[0], errs[1])
		}
		if got := b.walletStore().Balance("c"); got != 1e308 {
			t.Fatalf("trial %d: live balance %v, want 1e308", trial, got)
		}
		rb := fuzzBroker(t)
		if err := rb.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
			t.Fatalf("trial %d: crash recovery refused the log: %v", trial, err)
		}
		if got := rb.walletStore().Balance("c"); got != 1e308 {
			t.Fatalf("trial %d: recovered balance %v, want 1e308", trial, got)
		}
		if err := rb.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		if err := b.CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALDeadAfterCrash: once the log dies, every further mutation is
// refused — the broker cannot silently diverge from its journal.
func TestWALDeadAfterCrash(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("a", 50); err != nil {
		t.Fatal(err)
	}
	b.durableStore().wal.hook = func(p walCrashPoint, n int) (int, bool) {
		return 0, p == crashSyncFsync
	}
	if err := b.Deposit("a", 5); !errors.Is(err, errWALCrashed) {
		t.Fatalf("deposit over a dying WAL returned %v, want errWALCrashed", err)
	}
	if _, err := b.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "a", L: 0, U: 200, Alpha: 0.2, Delta: 0.5}); !errors.Is(err, errWALCrashed) {
		t.Fatalf("buy over a dead WAL returned %v, want errWALCrashed", err)
	}
	// In-memory balance matches what the customer was told: the failed
	// deposit rolled back.
	if got := b.walletStore().Balance("a"); got != 50 {
		t.Fatalf("balance %v after refused mutations, want 50", got)
	}
}

// TestTinyAlphaBuyKeepsWALAlive: a buy at an accuracy so fine that its
// plan's ε′ overflows to +Inf must fail as unachievable before anything
// is charged or journaled. A +Inf spend cannot be encoded, so
// journaling it used to kill the log and refuse every later deposit.
func TestTinyAlphaBuyKeepsWALAlive(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("a", 1e300); err != nil {
		t.Fatal(err)
	}
	_, err := b.Buy(Request{Op: "buy", Dataset: "ozone", Customer: "a", L: 0, U: 200, Alpha: 1e-100, Delta: 0.9})
	if !errors.Is(err, core.ErrUnachievable) {
		t.Fatalf("buy at alpha 1e-100 returned %v, want ErrUnachievable", err)
	}
	if got := b.walletStore().Balance("a"); got != 1e300 {
		t.Fatalf("balance %v after the refused buy, want 1e300", got)
	}
	if err := b.Deposit("a", 1e300); err != nil {
		t.Fatalf("deposit after the refused buy: %v", err)
	}
	rb := durBroker(t, dir, 0, nil) // recover as after a crash
	defer rb.CloseDurability()
	got := stateOf(t, rb)
	if got.Balances["a"] != 2e300 {
		t.Fatalf("recovered balance %v, want 2e300", got.Balances["a"])
	}
	if s := got.Accountants["ozone"]; s.Spent != 0 || s.Queries != 0 {
		t.Fatalf("recovered accountant %+v, want nothing spent", s)
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashWithSaleInFlightRecoversFinite: a sale whose debit is durable
// but whose receipt is not is in flight. A deposit made then must count
// the debit, because replay skips an unresolved sale's debit: had a
// 1e308 deposit been journaled on top of a 1e308 balance, recovery
// would replay the balance to +Inf and refuse the log.
func TestCrashWithSaleInFlightRecoversFinite(t *testing.T) {
	dir := t.TempDir()
	b := durBroker(t, dir, 0, nil)
	if err := b.Deposit("a", 1e308); err != nil {
		t.Fatal(err)
	}
	// The first half of settleBatch: debit, journaled and synced.
	w := b.walletStore()
	if err := w.debit("a", 1e308); err != nil {
		t.Fatal(err)
	}
	if err := b.journal(WALRecord{Op: opDebit, Sale: b.nextSale(), Customer: "a", Amount: 1e308}, telemetry.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := b.journalSync(telemetry.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("a", 1e308); err == nil {
		t.Fatal("a deposit that replay would overflow was accepted while a sale was in flight")
	}
	rb := durBroker(t, dir, 0, nil) // the crash: recover with the sale unresolved
	defer rb.CloseDurability()
	got := stateOf(t, rb)
	checkBooks(t, got)
	if got.Balances["a"] != 1e308 {
		t.Fatalf("recovered balance %v, want 1e308 (the unresolved debit skipped)", got.Balances["a"])
	}
	if err := b.CloseDurability(); err != nil {
		t.Fatal(err)
	}
}
