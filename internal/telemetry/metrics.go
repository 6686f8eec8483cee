// Package telemetry is the broker's observability layer: a
// zero-dependency, concurrency-safe metrics registry (counters, gauges
// and fixed-bucket histograms with atomic hot paths), stack-held
// per-query phase timers whose sampled phases become distributed
// spans, an operational event log, and an opt-in ops HTTP endpoint
// exposing everything as Prometheus text, a JSON snapshot, the span
// stream, and net/http/pprof.
//
// Privacy contract: telemetry lives strictly OUTSIDE the privacy
// boundary. Only post-noise released values, aggregate counts, byte
// volumes, durations and state labels may ever be recorded here —
// never raw per-node samples and never un-noised estimates. The
// privacyboundary analyzer in internal/lint mechanizes that rule: a
// raw sample container, or any value derived from one or from an
// un-noised estimate, flowing into a telemetry call is a lint error.
// See DESIGN.md §10.
//
// Performance contract: recording is allocation-free. All metric
// construction (names, labels, buckets) happens at registration time;
// the hot path is a handful of atomic operations, so instrumented
// query paths stay +0 allocs/op.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one static metric dimension, fixed at registration time.
// Labels are part of a metric's identity: registering the same name
// with different labels yields distinct time series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing event count. The zero value is
// unusable; obtain counters from a Registry. All methods are safe for
// concurrent use and nil-safe, so uninstrumented call sites cost one
// predictable branch.
type Counter struct {
	v    atomic.Uint64
	name string // family name
	lbls string // rendered {k="v",...} suffix, may be empty
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (stored as atomic bits).
// Methods are safe for concurrent use and nil-safe.
type Gauge struct {
	bits atomic.Uint64
	name string
	lbls string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution: bucket bounds are chosen at
// registration and never change, so Observe is a short linear scan plus
// two atomic adds. Methods are safe for concurrent use and nil-safe.
type Histogram struct {
	name    string
	lbls    string
	help    string
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds, the Prometheus convention for
// latency histograms.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets is the default bucket ladder for query-latency
// histograms, in seconds: 1µs up to 10s, roughly ×2.5 per step. The
// sub-10µs rungs exist because server-side phase self-times (cache
// lookups, WAL appends, estimator batches) are routinely
// sub-millisecond: with a 10µs floor they all collapsed into the first
// bucket and per-stage attribution could not rank them.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds a process's metrics plus its span stream and event
// log. Metric registration (Counter/Gauge/Histogram) takes a lock and
// may allocate; it belongs in setup code. The returned handles record
// with atomic operations only.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	events     *EventLog
	spans      *SpanBuf
	sampler    *Sampler
	hooks      []func()
}

// NewRegistry returns an empty registry with an event log of
// DefaultEventCapacity and a span ring of DefaultSpanCapacity
// (sampling disabled until SetTraceSampling).
func NewRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		events:     NewEventLog(DefaultEventCapacity),
		spans:      NewSpanBuf(DefaultSpanCapacity),
	}
	r.spans.attr = newAttribution(r)
	return r
}

// Spans returns the registry's distributed span ring. Nil-safe.
func (r *Registry) Spans() *SpanBuf {
	if r == nil {
		return nil
	}
	return r.spans
}

// SetTraceSampling configures server-originated head sampling: a
// request arriving without a trace context starts a new sampled trace
// 1 in n times (n <= 0 disables; n == 1 traces everything). Requests
// that already carry a sampled context are always traced, so a fleet
// can sample at the edge only.
func (r *Registry) SetTraceSampling(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sampler = NewSampler(n)
	r.mu.Unlock()
}

// Sampler returns the server-origin sampler (nil until
// SetTraceSampling, and a nil sampler never samples).
func (r *Registry) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampler
}

// onScrape registers fn to run at the start of every exposition
// (WritePrometheus, Snapshot) — used for lazily-computed gauges such
// as SLO burn rates.
func (r *Registry) onScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// runScrapeHooks invokes the registered scrape hooks outside the
// registry lock (hooks set gauges, which are atomic).
func (r *Registry) runScrapeHooks() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Events returns the registry's shared event log. Nil-safe: a nil
// registry returns a nil log, whose Append is a no-op.
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// key renders the unique identity of one (name, labels) series and the
// label suffix used in exposition. Labels are sorted by key so identity
// does not depend on registration order.
func seriesKey(name string, labels []Label) (id, suffix string) {
	if len(labels) == 0 {
		return name, ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	suffix = b.String()
	return name + suffix, suffix
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// Counter registers (or retrieves) the counter with the given name and
// static labels. Registering the same series twice returns the same
// handle; a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id, suffix := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	c := &Counter{name: name, lbls: suffix, help: help}
	r.counters[id] = c
	return c
}

// Gauge registers (or retrieves) the gauge with the given name and
// static labels. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id, suffix := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	g := &Gauge{name: name, lbls: suffix, help: help}
	r.gauges[id] = g
	return g
}

// Histogram registers (or retrieves) a fixed-bucket histogram. bounds
// must be ascending upper bounds (a +Inf overflow bucket is implicit);
// nil bounds selects LatencyBuckets. Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending at %d", name, i))
		}
	}
	id, suffix := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[id]; ok {
		return h
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	h := &Histogram{
		name:    name,
		lbls:    suffix,
		help:    help,
		bounds:  own,
		buckets: make([]atomic.Uint64, len(own)+1),
	}
	r.histograms[id] = h
	return h
}
