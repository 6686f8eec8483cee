package market

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"privrange/internal/pricing"
)

// FuzzRecover drives WAL decode and replay with arbitrary logs. The
// input is split on newlines into payloads and each payload is framed
// with a valid length+CRC header: raw bytes almost never pass the
// checksum, so unframed input would stop at decodeWAL and leave replay
// unfuzzed. The framed log is recovered into a prepaid broker. Recovery
// must never panic; a log it accepts must yield finite, non-negative
// balances and Σε′, receipts that obey Ledger.restore's id rules, and
// books that a clean shutdown (compaction) and a second recovery
// reproduce bit for bit. Seeds live in testdata/fuzz/FuzzRecover.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw []byte
		for _, payload := range bytes.Split(data, []byte("\n")) {
			if len(payload) > 0 {
				raw = append(raw, frame(payload)...)
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		b := fuzzBroker(t)
		if err := b.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
			return // refused: the log is corrupt, nothing was restored
		}
		books := stateOf(t, b)
		checkBooks(t, books)
		if err := b.CloseDurability(); err != nil {
			t.Fatalf("clean shutdown of recovered books: %v", err)
		}
		rb := fuzzBroker(t)
		if err := rb.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
			t.Fatalf("books recovered once refused on the second recovery: %v", err)
		}
		defer rb.CloseDurability()
		// encoding/json writes each finite float as the shortest string
		// that parses back to the same bits (-0 included), so equal
		// encodings mean bit-identical books.
		want, err := json.Marshal(books)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(stateOf(t, rb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("books changed across compaction and recovery:\n got  %s\n want %s", got, want)
		}
	})
}

// FuzzRecoverSnapshot drives snapshot.json recovery with arbitrary
// documents: the input is written as the snapshot of a WAL directory
// with no log and recovered into a prepaid broker. Recovery must never
// panic, and a document it accepts must yield books that pass
// checkBooks. One deposit follows. If it is acked, a recovery from the
// directory as a crash leaves it (no clean shutdown, so the deposit
// lives only in the log) must reproduce the books bit for bit; if it is
// refused, the books must be unchanged. Seeds, a real compaction
// snapshot, a legacy document without last_seq and a last_seq at the
// top of its range, live in testdata/fuzz/FuzzRecoverSnapshot.
func FuzzRecoverSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b := fuzzBroker(t)
		if err := b.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
			return // refused: the document is corrupt, nothing was restored
		}
		defer b.CloseDurability()
		want := stateOf(t, b)
		checkBooks(t, want)
		var got *Snapshot
		if err := b.Deposit("fuzz", 1e308); err != nil {
			got = stateOf(t, b) // refused: nothing may have moved
		} else {
			want = stateOf(t, b)
			rb := fuzzBroker(t)
			if err := rb.EnableDurability(dir, WithCompactionThreshold(0)); err != nil {
				t.Fatalf("crash recovery after an acked deposit refused: %v", err)
			}
			defer rb.CloseDurability()
			got = stateOf(t, rb)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("books diverged across a deposit and recovery:\n got  %s\n want %s", gotJSON, wantJSON)
		}
	})
}

// FuzzHandle drives the request frame the way Server does: the input is
// split on newlines, each line json.Unmarshal accepts as a Request is
// handled in order by a durable prepaid broker with one dataset
// (durBroker), and lines that fail to parse are skipped. Handling must
// never panic and every response must be OK or carry an Error; the
// books must then pass checkBooks, and a clean shutdown (compaction)
// plus a second recovery must reproduce them bit for bit. Seeds, one
// per op plus an unknown op and hostile deposits, live in
// testdata/fuzz/FuzzHandle.
func FuzzHandle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		b := durBroker(t, dir, 0, nil)
		for _, line := range bytes.Split(data, []byte("\n")) {
			var req Request
			if json.Unmarshal(line, &req) != nil {
				continue
			}
			resp := b.Handle(req)
			if resp == nil || resp.OK == (resp.Error != "") {
				t.Fatalf("request %+v: response %+v is neither OK nor an error", req, resp)
			}
		}
		books := stateOf(t, b)
		checkBooks(t, books)
		if err := b.CloseDurability(); err != nil {
			t.Fatalf("clean shutdown: %v", err)
		}
		rb := durBroker(t, dir, 0, nil)
		defer rb.CloseDurability()
		want, err := json.Marshal(books)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(stateOf(t, rb))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("books changed across compaction and recovery:\n got  %s\n want %s", got, want)
		}
	})
}

// fuzzBroker is a prepaid broker with no datasets: recovered Σε′ stays
// in the broker's restored state, where captures still see it.
func fuzzBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := NewBroker(pricing.InverseVariance{C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	b.AttachWallets(&Wallets{})
	return b
}

// checkBooks asserts the invariants every recovered book must hold.
func checkBooks(t *testing.T, s *Snapshot) {
	t.Helper()
	for c, v := range s.Balances {
		if !isFinite(v) || v < 0 {
			t.Fatalf("recovered balance %v for %q", v, c)
		}
	}
	for d, a := range s.Accountants {
		if !isFinite(a.Spent) || a.Spent < 0 || a.Queries < 0 {
			t.Fatalf("recovered accountant %+v for %q", a, d)
		}
	}
	seen := make(map[int64]bool, len(s.Receipts))
	for _, r := range s.Receipts {
		if r.ID <= 0 || r.ID > s.NextID || seen[r.ID] {
			t.Fatalf("recovered receipt id %d (next %d, duplicate %v)", r.ID, s.NextID, seen[r.ID])
		}
		seen[r.ID] = true
	}
}
