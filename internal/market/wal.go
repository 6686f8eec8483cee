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

	"privrange/internal/telemetry"
)

// The write-ahead log makes the trading books crash-consistent: every
// state mutation — wallet deposit, sale debit, refund, ε spend, receipt
// append — is journaled as a checksummed record and group-commit-fsynced
// to disk *before* the operation is acknowledged to the customer. On
// restart, recovery replays the log over the last compacted Snapshot and
// reconstructs exactly-once money, ε and receipt state (see recover.go).
//
// On-disk framing, per record:
//
//	[4 bytes big-endian payload length][4 bytes IEEE CRC32 of payload][payload]
//
// The payload is the JSON encoding of WALRecord. A torn final frame
// (short header, short payload, or checksum mismatch) marks the point
// the process died mid-write; recovery truncates the log at the last
// valid record. Records are strictly sequenced: Seq increases by one
// per append, and the compacted Snapshot remembers the last sequence it
// folded in so a crash between compaction and log truncation cannot
// double-apply a record.

// WAL operation codes. Deposit is the prepaid grant; debit/refund/spend/
// receipt together journal one sale, linked by the Sale id, with the
// receipt acting as the sale's commit record. Spend-withheld journals
// the ε charge of a sale whose answer was computed but withheld (the
// per-customer cap): the dataset accountant was charged even though no
// receipt will ever commit the sale, so replay applies it
// unconditionally — otherwise a restart would silently refund budget
// the live accountant treats as spent.
const (
	opDeposit   = "deposit"
	opDebit     = "debit"
	opRefund    = "refund"
	opSpend     = "spend"
	opSpendHeld = "spend-withheld"
	opReceipt   = "receipt"
)

// WALRecord is one journaled state mutation.
type WALRecord struct {
	// Seq is the record's strictly increasing sequence number, assigned
	// by Append.
	Seq uint64 `json:"seq"`
	// Op is one of the op* codes.
	Op string `json:"op"`
	// Sale links the records of one sale (debit → spend → receipt, or
	// debit → refund). Zero for standalone mutations (deposits).
	Sale uint64 `json:"sale,omitempty"`
	// Customer and Amount carry money mutations (deposit, debit, refund).
	Customer string  `json:"customer,omitempty"`
	Amount   float64 `json:"amount,omitempty"`
	// Dataset and Epsilon carry privacy-budget mutations (spend).
	Dataset string  `json:"dataset,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// Receipt carries the completed receipt (receipt op) — the sale's
	// commit record.
	Receipt *Receipt `json:"receipt,omitempty"`
}

// errWALCrashed reports that the log was killed by an injected crash
// point (tests) or a write failure: the broker's durable state can no
// longer advance, so every subsequent mutation is refused.
var errWALCrashed = errors.New("market: write-ahead log is dead (crash or I/O failure); broker is read-only until restarted")

// errWALSeqExhausted reports that the log has assigned its last sequence
// number. A wrapped number would sit at or below the snapshot's
// last_seq, where replay skips it, so the acknowledged mutation would
// vanish on the next recovery; every further mutation is refused
// instead.
var errWALSeqExhausted = errors.New("market: write-ahead log sequence numbers exhausted; broker is read-only")

// walCrashPoint names the instants the fault-injection hook may kill
// the log at, covering every boundary a real crash can hit.
type walCrashPoint int

const (
	// crashAppend dies before the record reaches the in-memory buffer:
	// the mutation is applied in memory but never becomes durable.
	crashAppend walCrashPoint = iota
	// crashSyncStart dies before any buffered byte is written.
	crashSyncStart
	// crashSyncWrite dies mid-write: only `keep` bytes of the buffer
	// land in the file — the torn-record case.
	crashSyncWrite
	// crashSyncFsync dies after the write but before fsync.
	crashSyncFsync
	// crashSyncDone dies after fsync but before the operation is
	// acknowledged: durable yet unacked, the classic commit/ack gap.
	crashSyncDone
	// crashCompact dies after the compacted snapshot is durable but
	// before the log is truncated: recovery must not double-apply the
	// records the snapshot already folded in.
	crashCompact
)

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
	walHeaderSize    = 8
	// maxWALRecordSize bounds a frame's declared payload length so a
	// corrupted header cannot drive a giant allocation during replay.
	maxWALRecordSize = 16 << 20
)

// WAL is an append-only, checksummed, group-commit-fsynced journal of
// trading-state mutations. Appends buffer in memory; Sync flushes the
// buffer and fsyncs once for every waiter that queued behind the same
// flush — concurrent sales pay one fsync, not one each. WAL is safe
// for concurrent use.
type WAL struct {
	mu  sync.Mutex // guards buf, seq, err and file writes
	f   *os.File
	buf []byte
	// seq is the last assigned sequence number; synced is the last
	// sequence whose bytes are durably on disk; logged counts bytes
	// appended since the last compaction (the compaction trigger).
	seq    uint64
	synced uint64
	logged int64
	err    error

	// syncMu serializes flushes; waiters queue here and find their
	// records already durable when a neighbour's flush covered them.
	syncMu sync.Mutex

	// hook, when non-nil, is consulted at every crash point with the
	// relevant byte count; returning die=true kills the log as if the
	// process died at that instant (keep selects the torn-write length
	// at crashSyncWrite). Tests only.
	hook func(p walCrashPoint, n int) (keep int, die bool)

	// tele fetches the marketplace metrics at call time so late
	// telemetry attachment (the ops endpoint is opt-in) is observed.
	// Nil-safe like every Metrics helper.
	tele func() *Metrics
}

// openWAL opens (creating if absent) dir's log file, truncates any
// invalid tail at truncateAt, and positions appends after lastSeq.
func openWAL(dir string, truncateAt int64, lastSeq uint64) (*WAL, error) {
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("market: open wal: %w", err)
	}
	if err := f.Truncate(truncateAt); err != nil {
		f.Close()
		return nil, fmt.Errorf("market: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(truncateAt, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("market: seek wal: %w", err)
	}
	return &WAL{f: f, seq: lastSeq, synced: lastSeq}, nil
}

// frame encodes one record with its length+checksum header.
func frame(payload []byte) []byte {
	out := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[walHeaderSize:], payload)
	return out
}

// AppendCtx is Append under a distributed-trace context: a sampled
// caller's append shows up as a "wal.append" span. StartStamp returns 0
// for unsampled contexts, so the untraced path never reads the clock.
func (w *WAL) AppendCtx(r WALRecord, sc telemetry.SpanContext) (uint64, error) {
	start := telemetry.StartStamp(sc)
	seq, err := w.Append(r)
	if start != 0 {
		if m := w.metrics(); m != nil {
			m.spans.EmitSince("wal.append", sc, start)
		}
	}
	return seq, err
}

// SyncCtx is Sync under a distributed-trace context: the group-commit
// flush a sampled caller waited on shows up as a "wal.fsync" span (the
// flush may cover neighbours' records — that wait is real latency and
// is attributed to the sale that paid it).
func (w *WAL) SyncCtx(sc telemetry.SpanContext) error {
	start := telemetry.StartStamp(sc)
	err := w.Sync()
	if start != 0 {
		if m := w.metrics(); m != nil {
			m.spans.EmitSince("wal.fsync", sc, start)
		}
	}
	return err
}

// Append assigns the record a sequence number and buffers its frame.
// The record is NOT durable until a Sync covering it returns; callers
// must not acknowledge the mutation before then.
func (w *WAL) Append(r WALRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.hook != nil {
		if _, die := w.hook(crashAppend, 0); die {
			w.err = errWALCrashed
			return 0, w.err
		}
	}
	if w.seq == math.MaxUint64 {
		w.err = errWALSeqExhausted
		return 0, w.err
	}
	w.seq++
	r.Seq = w.seq
	payload, err := json.Marshal(r)
	if err != nil {
		w.err = fmt.Errorf("market: wal encode: %w", err)
		return 0, w.err
	}
	w.buf = append(w.buf, frame(payload)...)
	w.logged += int64(walHeaderSize + len(payload))
	if m := w.metrics(); m != nil {
		m.noteWALAppend(walHeaderSize + len(payload))
	}
	return w.seq, nil
}

// loggedBytes returns the bytes appended since the last compaction.
func (w *WAL) loggedBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.logged
}

// lastSeq returns the most recently assigned sequence number.
func (w *WAL) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Sync makes every record appended so far durable. Group commit: the
// first caller in flushes everything buffered (covering later
// appenders' records too); callers whose records were flushed by a
// neighbour return without touching the disk.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target, err := w.seq, w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= target {
		return nil // a neighbouring flush already covered us
	}
	w.mu.Lock()
	buf, flushTo := w.buf, w.seq
	w.buf = nil
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	w.mu.Unlock()
	if err := w.flush(buf); err != nil {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		return err
	}
	w.synced = flushTo
	return nil
}

// flush writes buf and fsyncs, visiting the injected crash points on
// the way. Callers hold syncMu.
func (w *WAL) flush(buf []byte) error {
	if w.hook != nil {
		if _, die := w.hook(crashSyncStart, len(buf)); die {
			return errWALCrashed
		}
		if keep, die := w.hook(crashSyncWrite, len(buf)); die {
			if keep > len(buf) {
				keep = len(buf)
			}
			w.f.Write(buf[:keep]) // torn write, then death
			return errWALCrashed
		}
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("market: wal write: %w", err)
	}
	if w.hook != nil {
		if _, die := w.hook(crashSyncFsync, len(buf)); die {
			return errWALCrashed
		}
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("market: wal fsync: %w", err)
	}
	if m := w.metrics(); m != nil {
		m.noteWALFsync()
	}
	if w.hook != nil {
		if _, die := w.hook(crashSyncDone, len(buf)); die {
			return errWALCrashed
		}
	}
	return nil
}

// reset truncates the log after a compaction folded everything up to
// the current sequence into the snapshot. The broker holds its commit
// lock exclusively during compaction, so no appends race the truncate.
func (w *WAL) reset() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if len(w.buf) != 0 {
		return fmt.Errorf("market: wal reset with %d unsynced bytes", len(w.buf))
	}
	if w.hook != nil {
		if _, die := w.hook(crashCompact, 0); die {
			w.err = errWALCrashed
			return w.err
		}
	}
	if err := w.f.Truncate(0); err != nil {
		w.err = fmt.Errorf("market: wal truncate: %w", err)
		return w.err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		w.err = fmt.Errorf("market: wal seek: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("market: wal fsync after truncate: %w", err)
		return w.err
	}
	w.synced = w.seq
	w.logged = 0
	return nil
}

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	syncErr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return syncErr
	}
	closeErr := w.f.Close()
	w.f = nil
	if w.err == nil {
		w.err = errors.New("market: wal closed")
	}
	if syncErr != nil && !errors.Is(syncErr, errWALCrashed) {
		return syncErr
	}
	return closeErr
}

func (w *WAL) metrics() *Metrics {
	if w.tele == nil {
		return nil
	}
	return w.tele()
}

// decodeWAL scans raw frames and returns every valid record plus the
// byte offset of the last valid frame's end. Scanning stops at the
// first invalid frame — short header, absurd length, short payload or
// checksum mismatch — which is the torn tail a crash leaves behind;
// everything after it (even if it happens to look framed) is dropped,
// the truncate-at-last-valid-record semantics recovery relies on.
func decodeWAL(raw []byte) (records []WALRecord, validLen int64) {
	off := 0
	for {
		if off+walHeaderSize > len(raw) {
			return records, int64(off)
		}
		n := int(binary.BigEndian.Uint32(raw[off : off+4]))
		sum := binary.BigEndian.Uint32(raw[off+4 : off+8])
		if n <= 0 || n > maxWALRecordSize || off+walHeaderSize+n > len(raw) {
			return records, int64(off)
		}
		payload := raw[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, int64(off)
		}
		var r WALRecord
		if err := json.Unmarshal(payload, &r); err != nil {
			return records, int64(off)
		}
		records = append(records, r)
		off += walHeaderSize + n
	}
}
