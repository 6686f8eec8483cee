// Package telemetrytaint holds golden cases for the telemetrytaint
// analyzer.
package telemetrytaint

import (
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/sampling"
	"privrange/internal/telemetry"
)

// gaugeRawEstimate publishes the un-noised estimate as a gauge sample —
// the scrape endpoint would hand it to anyone.
func gaugeRawEstimate(r *telemetry.Registry, rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query) error {
	raw, err := rc.Estimate(sets, q)
	if err != nil {
		return err
	}
	r.Gauge("estimate", "raw").Set(raw) // want `un-noised estimate flows into telemetry`
	return nil
}

// gaugeSampleValue publishes one node's raw reading directly.
func gaugeSampleValue(g *telemetry.Gauge, set *sampling.SampleSet) {
	g.Set(set.Samples[0].Value) // want `flows into telemetry\.Gauge\.Set`
}

// labelFromSample derives a label value from a raw sample rank;
// conversions keep the taint.
func labelFromSample(set *sampling.SampleSet) telemetry.Label {
	return telemetry.L("rank", string(rune(set.Samples[0].Rank))) // want `flows into telemetry\.L`
}

// labelLiteralFromSample smuggles the same value through a Label
// composite literal instead of the constructor.
func labelLiteralFromSample(set *sampling.SampleSet) telemetry.Label {
	return telemetry.Label{Key: "rank", Value: string(rune(set.Samples[0].Rank))} // want `flows into telemetry\.Label`
}

// histogramBasicEstimate records the baseline estimator's un-noised
// |S ∩ [l,u]|/p — held to the same boundary as RankCounting.
func histogramBasicEstimate(h *telemetry.Histogram, bc estimator.BasicCounting, sets []*sampling.SampleSet, q estimator.Query) error {
	raw, err := bc.Estimate(sets, q)
	if err != nil {
		return err
	}
	h.Observe(raw) // want `un-noised estimate flows into telemetry\.Histogram\.Observe`
	return nil
}

// counterBatchEstimate feeds a raw batch estimate into a counter.
func counterBatchEstimate(c *telemetry.Counter, rc estimator.RankCounting, ix *index.Index, qs []estimator.Query) error {
	raws := make([]float64, len(qs))
	if err := rc.EstimateIndexBatch(ix, qs, raws); err != nil {
		return err
	}
	c.Add(uint64(raws[0])) // want `flows into telemetry\.Counter\.Add`
	return nil
}

// eventDetailFromSample writes sample-derived text into the event log.
func eventDetailFromSample(el *telemetry.EventLog, set *sampling.SampleSet) {
	for _, s := range set.Samples {
		el.Append("sample_seen", 0, 0, string(rune(s.Rank))) // want `flows into telemetry\.EventLog\.Append`
	}
}

// traceOutcomeFromEstimate tags a span with an estimate-derived string.
func traceOutcomeFromEstimate(tr *telemetry.Trace, rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query) {
	raw, _ := rc.Estimate(sets, q)
	tr.End(string(rune(int(raw)))) // want `flows into telemetry\.Trace\.End`
}

// annotateFromEstimate writes an un-noised estimate into a span
// annotation — /traces exports annotations verbatim.
func annotateFromEstimate(tr *telemetry.Trace, rc estimator.RankCounting, sets []*sampling.SampleSet, q estimator.Query) {
	raw, _ := rc.Estimate(sets, q)
	tr.Annotate("estimate", string(rune(int(raw)))) // want `flows into telemetry\.Trace\.Annotate`
}

// annotateKeyFromSample smuggles a raw rank through the annotation KEY
// position instead of the value.
func annotateKeyFromSample(tr *telemetry.Trace, set *sampling.SampleSet) {
	tr.Annotate(string(rune(set.Samples[0].Rank)), "seen") // want `flows into telemetry\.Trace\.Annotate`
}

// spanRecordAnnotFromSample writes a raw sample value into a span
// record annotation directly.
func spanRecordAnnotFromSample(rec *telemetry.SpanRecord, set *sampling.SampleSet) {
	rec.Annot("value", string(rune(int(set.Samples[0].Value)))) // want `flows into telemetry\.SpanRecord\.Annot`
}
