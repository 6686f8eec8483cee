package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x_total", "help"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every handle and container must be inert when nil so call sites
	// need no conditionals.
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var sb *SpanBuf
	var el *EventLog
	var reg *Registry
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	tr.Begin("x")
	tr.Mark("y")
	tr.End("ok")
	tr.Emit()
	sb.Emit(&SpanRecord{TraceID: 1})
	el.Append("t", 0, 0, "")
	if reg.Counter("a", "") != nil || reg.Gauge("a", "") != nil || reg.Histogram("a", "", nil) != nil {
		t.Fatalf("nil registry must hand out nil metrics")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
	_ = reg.Snapshot()
	if reg.Spans() != nil || reg.Events() != nil {
		t.Fatalf("nil registry must hand out nil spans/events")
	}
}

func TestLabelsDistinguishSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("req_total", "h", L("op", "buy"))
	b := r.Counter("req_total", "h", L("op", "quote"))
	if a == b {
		t.Fatalf("different labels must be different series")
	}
	a.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `req_total{op="buy"} 1`) {
		t.Fatalf("missing labelled sample:\n%s", out)
	}
	if !strings.Contains(out, `req_total{op="quote"} 0`) {
		t.Fatalf("missing zero-valued series:\n%s", out)
	}
	// One family header for the two series.
	if strings.Count(out, "# TYPE req_total counter") != 1 {
		t.Fatalf("family header must appear exactly once:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for non-ascending bounds")
		}
	}()
	r.Histogram("bad", "h", []float64{1, 1})
}

func TestTraceSpans(t *testing.T) {
	var tr Trace
	tr.Begin("core.answer")
	tr.Mark("optimize")
	tr.Mark("estimate")
	tr.End("ok")
	if !tr.Active() || tr.NumSpans != 2 {
		t.Fatalf("spans = %d, want 2", tr.NumSpans)
	}
	if tr.Spans[0].Name != "optimize" || tr.Spans[1].Name != "estimate" {
		t.Fatalf("span names = %v", tr.Spans[:2])
	}
	if tr.Total < tr.Spans[0].Duration {
		t.Fatalf("total %v below first span %v", tr.Total, tr.Spans[0].Duration)
	}

	// Overflowing MaxSpans folds into the last span instead of dropping
	// time on the floor.
	var long Trace
	long.Begin("x")
	for i := 0; i < MaxSpans+3; i++ {
		long.Mark("phase")
	}
	long.End("ok")
	if long.NumSpans != MaxSpans {
		t.Fatalf("NumSpans = %d, want %d", long.NumSpans, MaxSpans)
	}
}

func TestEventLogOrdering(t *testing.T) {
	l := NewEventLog(2)
	l.Append("a", 1, 10, "")
	l.Append("b", 2, 11, "")
	l.Append("c", 3, 12, "x")
	if l.Total() != 3 {
		t.Fatalf("total = %d, want 3", l.Total())
	}
	evs := l.Events()
	if len(evs) != 2 || evs[0].Type != "b" || evs[1].Type != "c" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("seqs = %d,%d want 2,3", evs[0].Seq, evs[1].Seq)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", L("k", "v")).Add(7)
	r.Gauge("g", "h").Set(3.5)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	r.Events().Append("breaker_open", 4, 9, "")

	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 3.5 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	if len(snap.Events) != 1 || snap.Events[0].Type != "breaker_open" {
		t.Fatalf("events = %+v", snap.Events)
	}
}

// TestConcurrentRecording drives every primitive from many goroutines,
// each trace emitting its operation and phase spans on the registry's
// span stream while scrapes read it; meaningful under -race.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) * 0.7)
				var tr Trace
				tr.BeginCtx("op", r.Spans().NewTrace(), r.Spans())
				tr.Mark("phase")
				tr.End("ok")
				tr.Emit()
				r.Events().Append("e", w, uint64(i), "")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.Snapshot()
			_ = r.TraceSpans()
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	// One operation span and one phase span per trace.
	if r.Spans().Emitted() != 16000 || r.Events().Total() != 8000 {
		t.Fatalf("spans/events totals = %d/%d, want 16000/8000", r.Spans().Emitted(), r.Events().Total())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("q", `a"b\c`)).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{q="a\"b\\c"} 1`) {
		t.Fatalf("bad escaping:\n%s", sb.String())
	}
}
