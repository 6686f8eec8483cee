package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name, one
// HELP/TYPE header per family, histogram buckets cumulative with an
// explicit +Inf bucket plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runScrapeHooks()
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	histograms := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		histograms = append(histograms, h)
	}
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool {
		return counters[i].name+counters[i].lbls < counters[j].name+counters[j].lbls
	})
	sort.Slice(gauges, func(i, j int) bool {
		return gauges[i].name+gauges[i].lbls < gauges[j].name+gauges[j].lbls
	})
	sort.Slice(histograms, func(i, j int) bool {
		return histograms[i].name+histograms[i].lbls < histograms[j].name+histograms[j].lbls
	})

	lastFamily := ""
	for _, c := range counters {
		if err := writeHeader(w, &lastFamily, c.name, c.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.name, c.lbls, c.Value()); err != nil {
			return err
		}
	}
	lastFamily = ""
	for _, g := range gauges {
		if err := writeHeader(w, &lastFamily, g.name, g.help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.name, g.lbls, formatFloat(g.Value())); err != nil {
			return err
		}
	}
	lastFamily = ""
	for _, h := range histograms {
		if err := writeHeader(w, &lastFamily, h.name, h.help, "histogram"); err != nil {
			return err
		}
		if err := writeHistogram(w, h); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, lastFamily *string, name, help, typ string) error {
	if name == *lastFamily {
		return nil
	}
	*lastFamily = name
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func writeHistogram(w io.Writer, h *Histogram) error {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			h.name, withLabel(h.lbls, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.name, withLabel(h.lbls, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.lbls, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.lbls, h.count.Load())
	return err
}

// withLabel merges one extra label pair into an already-rendered label
// suffix (which may be empty).
func withLabel(suffix, key, value string) string {
	pair := key + `="` + escapeLabelValue(value) + `"`
	if suffix == "" {
		return "{" + pair + "}"
	}
	return suffix[:len(suffix)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is the JSON form of the registry's metric values and
// retained events; per-request phases live on the span stream
// (TraceSpans). It is a copy — safe to hold, marshal and diff.
type Snapshot struct {
	Time       time.Time           `json:"time"`
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	Events     []Event             `json:"events,omitempty"`
}

// CounterSnapshot is one counter's point-in-time value.
type CounterSnapshot struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugeSnapshot is one gauge's point-in-time value.
type GaugeSnapshot struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSnapshot is one histogram's point-in-time state; Buckets[i]
// counts observations ≤ Bounds[i] (non-cumulative, one overflow bucket
// appended).
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Labels  string    `json:"labels,omitempty"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// SpanWire is one distributed span in /traces wire form. Ids are hex
// strings (64-bit ids survive JSON number precision limits that way).
type SpanWire struct {
	TraceID string            `json:"trace_id"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Name    string            `json:"name"`
	Start   int64             `json:"start_unix_ns"`
	DurNS   int64             `json:"duration_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Links   []string          `json:"links,omitempty"`
}

// TraceWire is the /traces payload: every retained span plus loss
// accounting, grouped nowhere — consumers (cmd/privquery trace) group
// by trace id.
type TraceWire struct {
	Time     time.Time  `json:"time"`
	Emitted  uint64     `json:"spans_emitted"`
	Retained int        `json:"spans_retained"`
	Spans    []SpanWire `json:"spans"`
}

func hex16(v uint64) string {
	if v == 0 {
		return ""
	}
	return string(appendHex16(nil, v))
}

// TraceSpans copies the distributed span ring into wire form.
func (r *Registry) TraceSpans() TraceWire {
	tw := TraceWire{Time: time.Now()}
	if r == nil {
		return tw
	}
	recs := r.spans.SnapshotSpans()
	tw.Emitted = r.spans.Emitted()
	tw.Retained = len(recs)
	tw.Spans = make([]SpanWire, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		sw := SpanWire{
			TraceID: hex16(rec.TraceID),
			SpanID:  hex16(rec.SpanID),
			Parent:  hex16(rec.ParentID),
			Name:    rec.Name,
			Start:   rec.Start,
			DurNS:   rec.Dur,
		}
		if rec.NAttrs > 0 {
			sw.Attrs = make(map[string]string, rec.NAttrs)
			for j := 0; j < rec.NAttrs; j++ {
				sw.Attrs[rec.Attrs[j].Key] = rec.Attrs[j].Value
			}
		}
		for _, l := range rec.Links {
			sw.Links = append(sw.Links, l.String())
		}
		tw.Spans = append(tw.Spans, sw)
	}
	sort.Slice(tw.Spans, func(i, j int) bool {
		if tw.Spans[i].TraceID != tw.Spans[j].TraceID {
			return tw.Spans[i].TraceID < tw.Spans[j].TraceID
		}
		return tw.Spans[i].Start < tw.Spans[j].Start
	})
	return tw
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Time: time.Now()}
	if r == nil {
		return snap
	}
	r.runScrapeHooks()
	r.mu.Lock()
	for _, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSnapshot{Name: c.name, Labels: c.lbls, Value: c.Value()})
	}
	for _, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSnapshot{Name: g.name, Labels: g.lbls, Value: g.Value()})
	}
	for _, h := range r.histograms {
		hs := HistogramSnapshot{
			Name:   h.name,
			Labels: h.lbls,
			Bounds: append([]float64(nil), h.bounds...),
			Count:  h.count.Load(),
			Sum:    h.Sum(),
		}
		hs.Buckets = make([]uint64, len(h.buckets))
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	r.mu.Unlock()

	sort.Slice(snap.Counters, func(i, j int) bool {
		return snap.Counters[i].Name+snap.Counters[i].Labels < snap.Counters[j].Name+snap.Counters[j].Labels
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return snap.Gauges[i].Name+snap.Gauges[i].Labels < snap.Gauges[j].Name+snap.Gauges[j].Labels
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return snap.Histograms[i].Name+snap.Histograms[i].Labels < snap.Histograms[j].Name+snap.Histograms[j].Labels
	})

	snap.Events = r.events.Events()
	return snap
}
