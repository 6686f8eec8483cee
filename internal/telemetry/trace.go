package telemetry

import "time"

// MaxSpans bounds the phases one trace can carry. The query pipeline
// has five named phases (sample-lookup, optimize, estimate, perturb,
// price); the headroom absorbs future stages without reallocating —
// a Trace is a fixed-size value so hot paths can keep it on the stack.
const MaxSpans = 8

// Span is one timed phase inside a trace. Name must be a constant: a
// sampled trace exports it verbatim as a span name.
type Span struct {
	Name     string
	Duration time.Duration
}

// Trace is one query's phase timer: an operation name, an ordered list
// of phase spans, a total duration and an outcome tag. It is designed
// to live on the caller's stack: Begin/Mark/End mutate it in place with
// no allocation, and Emit turns a sampled trace into spans on the
// registry's span stream. All methods are nil-safe and inert before
// Begin, so instrumented code paths need no conditionals around
// tracing calls.
type Trace struct {
	// Op names the operation, e.g. "core.answer".
	Op string
	// Outcome tags how the operation ended, e.g. "ok", "error",
	// "cache_hit", "degraded".
	Outcome string
	// Start is when Begin was called; Total is Start→End.
	Start time.Time
	Total time.Duration
	// Spans[:NumSpans] are the recorded phases in order.
	Spans    [MaxSpans]Span
	NumSpans int

	// Ctx is the distributed parent context (zero when the operation is
	// untraced); Attrs[:NAttrs] are constant-key span annotations copied
	// onto the emitted operation span. Links are causally related spans
	// that are not parents (a batch sale links every folded sale).
	Ctx    SpanContext
	Attrs  [MaxSpanAttrs]Label
	NAttrs int
	Links  []SpanContext

	on   bool
	last time.Time
	// self is the operation's own span id (0 when unsampled); buf is
	// where Emit sends the distributed spans.
	self uint64
	buf  *SpanBuf
}

// Begin starts the trace clock.
func (t *Trace) Begin(op string) {
	if t == nil {
		return
	}
	t.Op = op
	t.Start = time.Now()
	t.last = t.Start
	t.on = true
}

// Mark closes the current phase: it records a span named name covering
// the time since the previous Mark (or Begin) and restarts the phase
// clock. Extra marks beyond MaxSpans fold into the last span's
// duration so the total stays honest.
func (t *Trace) Mark(name string) {
	if t == nil || !t.on {
		return
	}
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	if t.NumSpans < MaxSpans {
		t.Spans[t.NumSpans] = Span{Name: name, Duration: d}
		t.NumSpans++
		return
	}
	t.Spans[MaxSpans-1].Duration += d
}

// End stops the clock and tags the outcome.
func (t *Trace) End(outcome string) {
	if t == nil || !t.on {
		return
	}
	t.Outcome = outcome
	t.Total = time.Since(t.Start)
}

// Active reports whether Begin has been called.
func (t *Trace) Active() bool { return t != nil && t.on }

// BeginCtx is Begin for a distributed trace: when parent is sampled
// and buf is non-nil, the trace joins parent's trace, allocates its
// own span id, and Emit will send the operation and its phases as
// spans into buf. Otherwise it degrades to a plain Begin.
func (t *Trace) BeginCtx(op string, parent SpanContext, buf *SpanBuf) {
	if t == nil {
		return
	}
	t.Begin(op)
	if parent.Sampled && parent.TraceID != 0 && buf != nil {
		t.Ctx = parent
		t.buf = buf
		t.self = buf.NextSpanID()
	}
}

// SpanCtx returns the context identifying this trace's own span — the
// parent context for downstream stages. Zero (unsampled) when the
// trace is not part of a sampled distributed trace.
func (t *Trace) SpanCtx() SpanContext {
	if t == nil || t.self == 0 {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.Ctx.TraceID, SpanID: t.self, Sampled: true}
}

// Sampled reports whether Emit will send distributed spans.
func (t *Trace) Sampled() bool { return t != nil && t.self != 0 }

// Link records a causal (non-parent) relation to another span; the
// emitted operation span carries it. Unsampled links are dropped.
func (t *Trace) Link(sc SpanContext) {
	if t == nil || !sc.Sampled || !sc.Valid() {
		return
	}
	t.Links = append(t.Links, sc)
}

// Annotate attaches one constant-key attribute to the operation span.
// Values must stay on the clean side of the privacy boundary — the
// privacyboundary analyzer checks both arguments. Nil-safe; extras
// beyond MaxSpanAttrs are dropped.
func (t *Trace) Annotate(key, value string) {
	if t == nil || t.NAttrs >= MaxSpanAttrs {
		return
	}
	t.Attrs[t.NAttrs] = Label{Key: key, Value: value}
	t.NAttrs++
}

// Emit converts a completed trace into distributed spans on the span
// buffer it was begun on: one span for the operation (parented on the
// trace's wire context) and one child span per recorded phase, with
// phase start times reconstructed from the cumulative phase durations.
// Nil-safe; a no-op unless the trace was begun with a sampled context
// (BeginCtx).
func (t *Trace) Emit() {
	if t == nil || !t.on || t.self == 0 {
		return
	}
	root := SpanRecord{
		TraceID:  t.Ctx.TraceID,
		SpanID:   t.self,
		ParentID: t.Ctx.SpanID,
		Name:     t.Op,
		Start:    t.Start.UnixNano(),
		Dur:      t.Total.Nanoseconds(),
		Attrs:    t.Attrs,
		NAttrs:   t.NAttrs,
		Links:    t.Links,
	}
	if t.Outcome != "" {
		root.Annot("outcome", t.Outcome)
	}
	t.buf.Emit(&root)
	off := root.Start
	for i := 0; i < t.NumSpans; i++ {
		sp := SpanRecord{
			TraceID:  t.Ctx.TraceID,
			ParentID: t.self,
			Name:     t.Op + "." + t.Spans[i].Name,
			Start:    off,
			Dur:      t.Spans[i].Duration.Nanoseconds(),
		}
		if ds := root.Attr("dataset"); ds != "" {
			sp.Annot("dataset", ds)
		}
		t.buf.Emit(&sp)
		off += t.Spans[i].Duration.Nanoseconds()
	}
}
