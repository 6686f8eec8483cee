package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing half of the telemetry package:
// a compact wire-propagable SpanContext, a deterministic counting
// Sampler, and a lock-free SpanBuf ring that collects SpanRecords from
// every stage of a request (client send, server handler, coalesced
// batch, engine phases, WAL fsync).
//
// Determinism contract: nothing here draws randomness. Trace and span
// ids come from atomic counters (the trace-id counter is seeded from
// the process start time purely for cross-process distinctness), and
// sampling is a modular counter — so tracing can be reasoned about,
// replayed, and — critically — never perturbs the engine's seeded noise
// stream. All wall-clock reads live inside this package: release code
// calls these helpers, never time.Now.
//
// Privacy contract: span names must be constants and span attributes
// carry only post-noise values, aggregate counts, durations and
// constant tags — never raw samples, un-noised estimates or raw node
// ids. The privacyboundary analyzer enforces this for Annot/Annotate.

// DefaultSpanCapacity is the default span ring size (must be a power
// of two).
const DefaultSpanCapacity = 4096

// MaxSpanAttrs bounds the attributes one span record can carry.
const MaxSpanAttrs = 6

// SpanContext identifies one position in a distributed trace: which
// trace, which span, and whether the trace is sampled. The zero value
// is "not part of any trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Valid reports whether the context belongs to a real trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// String renders the context in the market protocol's wire form:
// 16 hex digits of trace id, 16 of span id, and a 2-digit flags octet
// (bit 0 = sampled), dash-separated. The zero context renders "".
func (c SpanContext) String() string {
	if !c.Valid() {
		return ""
	}
	buf := make([]byte, 0, 36)
	buf = appendHex16(buf, c.TraceID)
	buf = append(buf, '-')
	buf = appendHex16(buf, c.SpanID)
	buf = append(buf, '-')
	if c.Sampled {
		buf = append(buf, '0', '1')
	} else {
		buf = append(buf, '0', '0')
	}
	return string(buf)
}

func appendHex16(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	var tmp [16]byte
	for i := 15; i >= 0; i-- {
		tmp[i] = digits[v&0xf]
		v >>= 4
	}
	return append(dst, tmp[:]...)
}

// ParseSpanContext parses the String form. Unknown flag bits are
// ignored (forward compatibility); malformed input yields (zero,
// false) so a junk trace field degrades to "untraced", never an error.
func ParseSpanContext(s string) (SpanContext, bool) {
	if len(s) != 36 || s[16] != '-' || s[33] != '-' {
		return SpanContext{}, false
	}
	tid, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	sid, err := strconv.ParseUint(s[17:33], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	flags, err := strconv.ParseUint(s[34:], 16, 8)
	if err != nil {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: tid, SpanID: sid, Sampled: flags&1 != 0}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// Sampler makes head-based sampling decisions with a modular atomic
// counter: every n-th Sample() call returns true. Deterministic (no
// randomness, no clock), allocation-free, nil-safe (never samples).
type Sampler struct {
	n   uint64
	ctr atomic.Uint64
}

// NewSampler returns a 1-in-n sampler. n <= 0 disables sampling
// (Sample always false); n == 1 samples everything.
func NewSampler(n int) *Sampler {
	if n <= 0 {
		return &Sampler{}
	}
	return &Sampler{n: uint64(n)}
}

// Sample reports whether this request should be traced.
func (s *Sampler) Sample() bool {
	if s == nil || s.n == 0 {
		return false
	}
	return s.ctr.Add(1)%s.n == 0
}

// Rate returns the configured n of 1-in-n (0 = disabled).
func (s *Sampler) Rate() int {
	if s == nil {
		return 0
	}
	return int(s.n)
}

// SpanRecord is one completed span. Records are plain values: Emit
// copies them into the ring, snapshots copy them out.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Name must be a constant; /traces exports it verbatim.
	Name string
	// Start is UnixNano; Dur is nanoseconds.
	Start int64
	Dur   int64
	// Attrs[:NAttrs] are constant-key annotations. Values must stay on
	// the clean side of the privacy boundary (privacyboundary checks
	// Annot call sites).
	Attrs  [MaxSpanAttrs]Label
	NAttrs int
	// Links are other spans causally related but not parents — a
	// coalesced batch span links every folded sale's handler span.
	// Emit takes ownership of the slice.
	Links []SpanContext
}

// Annot appends one attribute; extras beyond MaxSpanAttrs are dropped.
func (r *SpanRecord) Annot(key, value string) {
	if r == nil || r.NAttrs >= MaxSpanAttrs {
		return
	}
	r.Attrs[r.NAttrs] = Label{Key: key, Value: value}
	r.NAttrs++
}

// Attr returns the value of the named attribute ("" when absent).
func (r *SpanRecord) Attr(key string) string {
	for i := 0; i < r.NAttrs; i++ {
		if r.Attrs[i].Key == key {
			return r.Attrs[i].Value
		}
	}
	return ""
}

// Slot states for the span ring.
const (
	slotEmpty uint32 = iota
	slotBusy         // one writer or one reader owns the record
	slotFull
)

type spanSlot struct {
	state atomic.Uint32
	rec   SpanRecord
}

// SpanBuf is a lock-free ring of completed spans. Writers reserve a
// slot with one atomic add and take per-slot ownership with one CAS —
// there is no global lock on the emit path, so concurrent connection
// handlers, batch releases and WAL fsyncs never serialize on tracing. A writer spins only when a snapshot reader holds its exact
// slot mid-copy (rare and bounded). The ring overwrites oldest spans;
// Emitted counts everything ever recorded so tests can detect loss.
type SpanBuf struct {
	ids    atomic.Uint64 // span-id allocator
	traces atomic.Uint64 // trace-id allocator (seeded at construction)
	cursor atomic.Uint64 // ring write cursor
	total  atomic.Uint64 // spans ever emitted
	mask   uint64
	slots  []spanSlot
	attr   *Attribution // optional per-stage latency aggregation
}

// NewSpanBuf returns a span ring holding the last capacity spans
// (rounded up to a power of two, minimum 16).
func NewSpanBuf(capacity int) *SpanBuf {
	size := 16
	for size < capacity {
		size <<= 1
	}
	b := &SpanBuf{mask: uint64(size - 1), slots: make([]spanSlot, size)}
	// Seed trace ids from the clock once, at construction, so traces
	// from different processes are distinguishable in a shared store.
	// This is the only clock read that influences ids, and ids never
	// influence released answers.
	b.traces.Store(uint64(time.Now().UnixNano()) << 12)
	return b
}

// NextSpanID allocates a fresh span id. Nil-safe (returns 0).
func (b *SpanBuf) NextSpanID() uint64 {
	if b == nil {
		return 0
	}
	return b.ids.Add(1)
}

// NewRoot allocates a fresh sampled root context — the client side of
// a trace: the span id is the client's own span. Nil-safe (returns
// the zero context).
func (b *SpanBuf) NewRoot() SpanContext {
	if b == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: b.traces.Add(1), SpanID: b.ids.Add(1), Sampled: true}
}

// NewTrace allocates a fresh sampled trace with no parent span — a
// server-originated trace root (the first operation span becomes the
// tree root). Not serializable (String requires a span id); use
// NewRoot for contexts that cross the wire. Nil-safe.
func (b *SpanBuf) NewTrace() SpanContext {
	if b == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: b.traces.Add(1), Sampled: true}
}

// Emit records one completed span. Takes ownership of rec.Links.
// Nil-safe; spans without a trace id are dropped.
func (b *SpanBuf) Emit(rec *SpanRecord) {
	if b == nil || rec == nil || rec.TraceID == 0 {
		return
	}
	if rec.SpanID == 0 {
		rec.SpanID = b.ids.Add(1)
	}
	i := b.cursor.Add(1)
	s := &b.slots[i&b.mask]
	for {
		st := s.state.Load()
		if st != slotBusy && s.state.CompareAndSwap(st, slotBusy) {
			break
		}
	}
	s.rec = *rec
	s.state.Store(slotFull)
	b.total.Add(1)
	b.attr.observeSpan(rec)
}

// Emitted returns how many spans were ever emitted (including those
// already overwritten).
func (b *SpanBuf) Emitted() uint64 {
	if b == nil {
		return 0
	}
	return b.total.Load()
}

// Capacity returns the ring size.
func (b *SpanBuf) Capacity() int {
	if b == nil {
		return 0
	}
	return len(b.slots)
}

// SnapshotSpans copies out every retained span, ordered oldest-first
// by ring position. Links are deep-copied, so the result is safe to
// hold and marshal.
func (b *SpanBuf) SnapshotSpans() []SpanRecord {
	if b == nil {
		return nil
	}
	out := make([]SpanRecord, 0, len(b.slots))
	cur := b.cursor.Load()
	for off := uint64(0); off < uint64(len(b.slots)); off++ {
		s := &b.slots[(cur+1+off)&b.mask]
		if !s.state.CompareAndSwap(slotFull, slotBusy) {
			continue // empty, or a writer owns it right now
		}
		rec := s.rec
		rec.Links = append([]SpanContext(nil), s.rec.Links...)
		s.state.Store(slotFull)
		out = append(out, rec)
	}
	return out
}

// StartStamp returns a wall-clock stamp for a span about to be timed
// under sc, or 0 when sc is unsampled — so callers outside this
// package never read the clock themselves and unsampled requests skip
// the read entirely.
func StartStamp(sc SpanContext) int64 {
	if !sc.Sampled || sc.TraceID == 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// EmitSince emits a span named name under sc covering start→now.
// No-op when start is 0 (the unsampled StartStamp result). Nil-safe.
func (b *SpanBuf) EmitSince(name string, sc SpanContext, start int64) {
	if b == nil || start == 0 || !sc.Sampled || sc.TraceID == 0 {
		return
	}
	b.Emit(&SpanRecord{
		TraceID:  sc.TraceID,
		ParentID: sc.SpanID,
		Name:     name,
		Start:    start,
		Dur:      time.Now().UnixNano() - start,
	})
}

// EmitRootSince is EmitSince for the span identified by sc itself —
// the trace originator's own root span (parent 0), e.g. a client's
// send→receive span around a wire request it stamped with NewRoot.
func (b *SpanBuf) EmitRootSince(name string, sc SpanContext, start int64) {
	if b == nil || start == 0 || !sc.Sampled || !sc.Valid() {
		return
	}
	b.Emit(&SpanRecord{
		TraceID: sc.TraceID,
		SpanID:  sc.SpanID,
		Name:    name,
		Start:   start,
		Dur:     time.Now().UnixNano() - start,
	})
}

// Attribution aggregates per-stage self-time from the sampled span
// stream into exact-bucket histograms keyed by (stage, dataset), so
// the ops snapshot can answer "p99 is fsync-bound" without storing
// every span. Quantiles from a 1-in-n head-sampled
// stream are unbiased; counts are sampled counts.
type Attribution struct {
	reg *Registry
	mu  sync.RWMutex
	hs  map[stageKey]*Histogram
}

type stageKey struct {
	stage, dataset string
}

// StageSecondsMetric is the metric family attribution observes into.
const StageSecondsMetric = "privrange_stage_seconds"

func newAttribution(reg *Registry) *Attribution {
	return &Attribution{reg: reg, hs: make(map[stageKey]*Histogram)}
}

// observeSpan feeds one emitted span into the stage histograms. The
// fast path (series already registered) is a shared-lock map hit with
// a struct key: no allocation.
func (a *Attribution) observeSpan(rec *SpanRecord) {
	if a == nil || rec.Dur < 0 {
		return
	}
	key := stageKey{stage: rec.Name, dataset: rec.Attr("dataset")}
	a.mu.RLock()
	h, ok := a.hs[key]
	a.mu.RUnlock()
	if !ok {
		h = a.reg.Histogram(StageSecondsMetric,
			"per-stage self-time from the sampled span stream", LatencyBuckets,
			L("stage", key.stage), L("dataset", key.dataset))
		a.mu.Lock()
		if prev, dup := a.hs[key]; dup {
			h = prev
		} else {
			a.hs[key] = h
		}
		a.mu.Unlock()
	}
	h.Observe(float64(rec.Dur) / 1e9)
}
