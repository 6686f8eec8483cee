package core

import (
	"strings"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/estimator"
	"privrange/internal/iot"
	"privrange/internal/shard"
	"privrange/internal/telemetry"
)

// TestShardedBatchCountsIndexPath pins that a sharded deployment is an
// ordinary Source: its composed snapshot carries a columnar index, so a
// sharded batch runs — and is counted under — the flat-index kernel.
func TestShardedBatchCountsIndexPath(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.ParticulateMatter, dataset.GenerateConfig{Seed: 87, Records: 8000})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := series.Partition(16)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := shard.New(parts, 4, iot.Config{Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng, err := New(cl, WithSeed(5), WithTelemetry(NewMetrics(reg)))
	if err != nil {
		t.Fatal(err)
	}
	queries := []estimator.Query{{L: 0, U: 50}, {L: 50, U: 100}, {L: 20, U: 180}}
	if _, err := eng.AnswerBatch(queries, estimator.Accuracy{Alpha: 0.08, Delta: 0.6}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`privrange_core_batches_total{path="index_tiled"} 1`,
		`privrange_core_batches_total{path="sampleset"} 0`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
