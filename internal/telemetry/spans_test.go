package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanContextStringRoundTrip(t *testing.T) {
	cases := []SpanContext{
		{TraceID: 1, SpanID: 2, Sampled: true},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef, Sampled: false},
		{TraceID: ^uint64(0), SpanID: 1, Sampled: true},
	}
	for _, c := range cases {
		s := c.String()
		if len(s) != 36 {
			t.Fatalf("String(%+v) = %q: want 36 chars", c, s)
		}
		got, ok := ParseSpanContext(s)
		if !ok || got != c {
			t.Fatalf("roundtrip %+v via %q: got %+v ok=%v", c, s, got, ok)
		}
	}
	if s := (SpanContext{}).String(); s != "" {
		t.Fatalf("zero context String() = %q: want empty", s)
	}
}

func TestParseSpanContextMalformed(t *testing.T) {
	valid := SpanContext{TraceID: 7, SpanID: 9, Sampled: true}.String()
	bad := []string{
		"",
		"short",
		valid[:34],
		valid + "0",
		strings.Replace(valid, "-", "x", 1),
		strings.Repeat("g", 36),
		// zero ids are structurally valid hex but not a real trace
		SpanContext{TraceID: 1, SpanID: 1, Sampled: true}.String()[:17] + "0000000000000000-01",
	}
	for _, s := range bad {
		if got, ok := ParseSpanContext(s); ok {
			t.Fatalf("ParseSpanContext(%q) = %+v, ok: want rejection", s, got)
		} else if got != (SpanContext{}) {
			t.Fatalf("ParseSpanContext(%q) rejected but returned %+v: want zero", s, got)
		}
	}
	// Unknown flag bits are tolerated, only bit 0 is read.
	if got, ok := ParseSpanContext(valid[:34] + "ff"); !ok || !got.Sampled {
		t.Fatalf("flag ff: got %+v ok=%v, want sampled", got, ok)
	}
}

func TestSamplerModular(t *testing.T) {
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampler: %d hits in 400, want 100", hits)
	}
	always := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !always.Sample() {
			t.Fatal("1-in-1 sampler returned false")
		}
	}
	for _, off := range []*Sampler{NewSampler(0), NewSampler(-3), nil} {
		if off.Sample() {
			t.Fatal("disabled sampler returned true")
		}
	}
	if NewSampler(64).Rate() != 64 {
		t.Fatal("Rate mismatch")
	}
}

func TestSpanBufEmitAndSnapshot(t *testing.T) {
	b := NewSpanBuf(16)
	root := b.NewRoot()
	if !root.Valid() || !root.Sampled {
		t.Fatalf("NewRoot() = %+v: want valid sampled", root)
	}
	rec := SpanRecord{TraceID: root.TraceID, SpanID: root.SpanID, Name: "client.request", Start: 100, Dur: 50}
	rec.Annot("dataset", "air")
	b.Emit(&rec)
	b.Emit(&SpanRecord{TraceID: root.TraceID, ParentID: root.SpanID, Name: "market.buy", Start: 110, Dur: 30})
	// Untraced spans are dropped.
	b.Emit(&SpanRecord{Name: "orphan"})
	if got := b.Emitted(); got != 2 {
		t.Fatalf("Emitted() = %d, want 2", got)
	}
	recs := b.SnapshotSpans()
	if len(recs) != 2 {
		t.Fatalf("snapshot holds %d spans, want 2", len(recs))
	}
	byName := make(map[string]SpanRecord)
	for _, r := range recs {
		byName[r.Name] = r
	}
	cl := byName["client.request"]
	if cl.SpanID != root.SpanID || cl.Attr("dataset") != "air" {
		t.Fatalf("client span wrong: %+v", cl)
	}
	if buy := byName["market.buy"]; buy.ParentID != root.SpanID || buy.SpanID == 0 {
		t.Fatalf("buy span parentage wrong: %+v (want parent %d, auto span id)", buy, root.SpanID)
	}
}

func TestSpanBufOverwritesOldest(t *testing.T) {
	b := NewSpanBuf(16)
	for i := 0; i < 100; i++ {
		b.Emit(&SpanRecord{TraceID: 1, Name: "s", Start: int64(i)})
	}
	if got := b.Emitted(); got != 100 {
		t.Fatalf("Emitted() = %d, want 100", got)
	}
	recs := b.SnapshotSpans()
	if len(recs) != b.Capacity() {
		t.Fatalf("snapshot holds %d, want capacity %d", len(recs), b.Capacity())
	}
	for _, r := range recs {
		if r.Start < 100-int64(b.Capacity()) {
			t.Fatalf("span start %d survived: ring did not overwrite oldest", r.Start)
		}
	}
}

// TestSpanBufConcurrentEmit drives emitters and snapshotters together;
// under -race this is the lock-freedom proof, and afterwards no span
// may be lost or cross-wired (every record intact and attributable).
func TestSpanBufConcurrentEmit(t *testing.T) {
	b := NewSpanBuf(64)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := SpanRecord{TraceID: uint64(w + 1), Name: "core.answer", Start: int64(i), Dur: 1}
				rec.Annot("worker", strconv.Itoa(w))
				b.Emit(&rec)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, r := range b.SnapshotSpans() {
				if r.TraceID == 0 || r.TraceID > workers || r.Name != "core.answer" {
					panic("snapshot read a torn or cross-wired span")
				}
				if r.Attr("worker") != strconv.Itoa(int(r.TraceID-1)) {
					panic("span attrs cross-wired between emitters")
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := b.Emitted(); got != workers*per {
		t.Fatalf("Emitted() = %d, want %d (lost spans)", got, workers*per)
	}
}

func TestEmitTraceBuildsSpanTree(t *testing.T) {
	b := NewSpanBuf(64)
	parent := b.NewRoot()

	var tr Trace
	tr.BeginCtx("market.buy", parent, b)
	if !tr.Sampled() {
		t.Fatal("BeginCtx with sampled parent: trace not sampled")
	}
	tr.Annotate("dataset", "ozone")
	linked := SpanContext{TraceID: parent.TraceID, SpanID: 999, Sampled: true}
	tr.Link(linked)
	tr.Mark("answer")
	tr.Mark("journal")
	tr.End("ok")
	tr.Emit()

	recs := b.SnapshotSpans()
	var root *SpanRecord
	children := make(map[string]SpanRecord)
	for i := range recs {
		if recs[i].Name == "market.buy" {
			root = &recs[i]
		} else {
			children[recs[i].Name] = recs[i]
		}
	}
	if root == nil {
		t.Fatalf("no operation span among %d records", len(recs))
	}
	if root.TraceID != parent.TraceID || root.ParentID != parent.SpanID {
		t.Fatalf("op span not parented on wire context: %+v (parent %+v)", root, parent)
	}
	if root.Attr("dataset") != "ozone" || root.Attr("outcome") != "ok" {
		t.Fatalf("op span attrs wrong: %+v", root.Attrs[:root.NAttrs])
	}
	if len(root.Links) != 1 || root.Links[0] != linked {
		t.Fatalf("op span links wrong: %+v", root.Links)
	}
	if len(children) != 2 {
		t.Fatalf("want 2 phase children, got %v", children)
	}
	ans, jr := children["market.buy.answer"], children["market.buy.journal"]
	if ans.ParentID != root.SpanID || jr.ParentID != root.SpanID {
		t.Fatalf("phase spans not parented on op span %d: %+v / %+v", root.SpanID, ans, jr)
	}
	if ans.Attr("dataset") != "ozone" {
		t.Fatalf("dataset attr not propagated to phase span: %+v", ans)
	}
	if jr.Start != ans.Start+ans.Dur {
		t.Fatalf("phase starts not cumulative: answer %d+%d, journal %d", ans.Start, ans.Dur, jr.Start)
	}
}

func TestBeginCtxUnsampledDegrades(t *testing.T) {
	b := NewSpanBuf(16)
	var tr Trace
	tr.BeginCtx("market.buy", SpanContext{}, b)
	tr.Mark("answer")
	tr.End("ok")
	if tr.Sampled() || tr.SpanCtx() != (SpanContext{}) {
		t.Fatal("unsampled BeginCtx produced a sampled trace")
	}
	tr.Emit()
	if b.Emitted() != 0 {
		t.Fatal("unsampled trace emitted distributed spans")
	}
}

func TestStartStampAndEmitSince(t *testing.T) {
	b := NewSpanBuf(16)
	if StartStamp(SpanContext{}) != 0 {
		t.Fatal("StartStamp of unsampled context must be 0")
	}
	parent := b.NewRoot()
	start := StartStamp(parent)
	if start == 0 {
		t.Fatal("StartStamp of sampled context must be nonzero")
	}
	b.EmitSince("wal.fsync", parent, start)
	b.EmitSince("wal.fsync", SpanContext{}, 0) // no-op
	b.EmitRootSince("client.request", parent, start)
	recs := b.SnapshotSpans()
	if len(recs) != 2 {
		t.Fatalf("want 2 spans, got %d", len(recs))
	}
	for _, r := range recs {
		switch r.Name {
		case "wal.fsync":
			if r.ParentID != parent.SpanID || r.SpanID == parent.SpanID {
				t.Fatalf("EmitSince span wrong: %+v", r)
			}
		case "client.request":
			if r.SpanID != parent.SpanID || r.ParentID != 0 {
				t.Fatalf("EmitRootSince span wrong: %+v", r)
			}
		default:
			t.Fatalf("unexpected span %q", r.Name)
		}
		if r.Dur < 0 {
			t.Fatalf("negative duration: %+v", r)
		}
	}
}

func TestAttributionFeedsStageHistograms(t *testing.T) {
	r := NewRegistry()
	b := r.Spans()
	parent := b.NewRoot()
	rec := SpanRecord{TraceID: parent.TraceID, SpanID: b.NextSpanID(), ParentID: parent.SpanID,
		Name: "core.answer.estimate", Start: StartStamp(parent), Dur: 1}
	rec.Annot("dataset", "air")
	b.Emit(&rec)
	b.EmitSince("wal.fsync", parent, StartStamp(parent))

	snap := r.Snapshot()
	found := make(map[string]bool)
	for _, h := range snap.Histograms {
		if h.Name == StageSecondsMetric && h.Count > 0 {
			found[h.Labels] = true
		}
	}
	wantEstimate := `{dataset="air",stage="core.answer.estimate"}`
	wantFsync := `{dataset="",stage="wal.fsync"}`
	if !found[wantEstimate] || !found[wantFsync] {
		t.Fatalf("stage histograms missing: have %v, want %q and %q", found, wantEstimate, wantFsync)
	}
}

func TestSLOBurnMath(t *testing.T) {
	r := NewRegistry()
	s := r.SLO(Objective{Name: "buy", Target: 0.9, Threshold: time.Second})
	// 8 good, 1 slow (bad), 1 failed (bad): bad fraction 0.2 against a
	// 0.1 budget = burn 2.0.
	for i := 0; i < 8; i++ {
		s.Observe(time.Millisecond, true)
	}
	s.Observe(2*time.Second, true)
	s.Observe(time.Millisecond, false)
	s.Refresh()

	snap := r.Snapshot()
	var burns []float64
	for _, g := range snap.Gauges {
		if g.Name == BurnRateMetric {
			burns = append(burns, g.Value)
		}
	}
	if len(burns) != len(DefaultSLOWindows) {
		t.Fatalf("want %d burn gauges, got %d", len(DefaultSLOWindows), len(burns))
	}
	for _, burn := range burns {
		if burn < 1.99 || burn > 2.01 {
			t.Fatalf("burn rate = %v, want 2.0", burn)
		}
	}
	var good, total uint64
	for _, c := range snap.Counters {
		switch c.Name {
		case "privrange_slo_good_total":
			good = c.Value
		case "privrange_slo_requests_total":
			total = c.Value
		}
	}
	if good != 8 || total != 10 {
		t.Fatalf("lifetime counters good=%d total=%d, want 8/10", good, total)
	}
}

func TestSLOZeroTrafficAndSaturation(t *testing.T) {
	if burn := burnRate(0, 0, 0.99); burn != 0 {
		t.Fatalf("no traffic must be zero burn, got %v", burn)
	}
	if burn := burnRate(0, 1, 1.0); burn != 1e9 {
		t.Fatalf("zero budget with a bad request must saturate at 1e9, got %v", burn)
	}
	if burn := burnRate(1, 1, 1.0); burn != 0 {
		t.Fatalf("zero budget all-good must be zero burn, got %v", burn)
	}
	var nilSLO *SLO
	nilSLO.Observe(time.Second, true) // nil-safe
	nilSLO.Refresh()
}

func TestRegistrySamplerWiring(t *testing.T) {
	r := NewRegistry()
	if r.Sampler().Sample() {
		t.Fatal("sampling before SetTraceSampling")
	}
	r.SetTraceSampling(1)
	if !r.Sampler().Sample() {
		t.Fatal("1-in-1 sampling not in effect")
	}
	r.SetTraceSampling(0)
	if r.Sampler().Sample() {
		t.Fatal("sampling still on after disable")
	}
}
