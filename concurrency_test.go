package privrange

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"privrange/internal/iot"
)

// TestSystemConcurrentMixedWorkload hammers one System with parallel
// Count, CountBatch and Ingest callers. Run under -race (make
// race) it proves the broker's read-mostly locking: queries estimate
// against immutable snapshots while ingestion rounds rewrite the sample
// state underneath them.
func TestSystemConcurrentMixedWorkload(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 9)
	sys, err := NewSystem(series.Values, Options{Nodes: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	// Warm up: establish a sampling rate before the contention starts so
	// no goroutine needs the (writer) auto-collection path mid-flight.
	if _, err := sys.Count(0, 100, acc); err != nil {
		t.Fatal(err)
	}

	const (
		counters  = 4
		batchers  = 2
		ingesters = 2
		iters     = 6
		perIngest = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, counters*iters+batchers*iters+ingesters*iters)

	for g := 0; g < counters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := sys.Count(float64(5*g), float64(5*g+120), acc); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ranges := []Range{{L: 0, U: 60}, {L: 30, U: 150}, {L: float64(10 * g), U: 200}, {L: 50, U: 90}}
			for i := 0; i < iters; i++ {
				if _, err := sys.CountBatch(ranges, acc); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	ingested := 0
	var ingestedMu sync.Mutex
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				batch := make([]float64, perIngest)
				for j := range batch {
					batch[j] = float64(40 + (g+i+j)%80)
				}
				if err := sys.Ingest(batch); err != nil {
					errs <- err
					return
				}
				ingestedMu.Lock()
				ingested += len(batch)
				ingestedMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every ingested record must be visible to subsequent queries.
	if want := series.Len() + ingested; sys.N() != want {
		t.Errorf("N = %d after concurrent ingest, want %d", sys.N(), want)
	}
	if sys.SamplingRate() <= 0 {
		t.Error("sampling rate lost under concurrency")
	}
}

// TestChaosConcurrentBestEffort drives a faulted deployment — per-node
// loss, corruption, and a crash/recover window — with parallel queries
// and ingest rounds under the best-effort degradation policy. Run under
// -race (make chaos) it proves the fault-tolerance layer composes with
// the concurrency model: partial collection rounds never corrupt shared
// state, and released answers always carry sane provenance.
func TestChaosConcurrentBestEffort(t *testing.T) {
	t.Parallel()
	series := testSeries(t, 17)
	sys, err := NewSystem(series.Values, Options{
		Nodes:      16,
		Seed:       17,
		BestEffort: true,
		Faults: map[int]iot.FaultProfile{
			1: {LossRate: 0.3, CorruptRate: 0.1},
			5: {LossRate: 0.25},
			9: {CrashWindows: []iot.CrashWindow{{From: 3, Until: 6}, {From: 9, Until: 12}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy{Alpha: 0.1, Delta: 0.5}
	// Warm up on the clean first round so the rate guarantee exists
	// before the crash windows open.
	if _, err := sys.Count(0, 100, acc); err != nil {
		t.Fatal(err)
	}

	const (
		counters  = 4
		ingesters = 2
		iters     = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, (counters+ingesters)*iters)
	for g := 0; g < counters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ans, err := sys.Count(float64(5*g), float64(5*g+120), acc)
				if err != nil {
					errs <- err
					return
				}
				if ans.Coverage <= 0 || ans.Coverage > 1 {
					errs <- fmt.Errorf("answer coverage %v outside (0, 1]", ans.Coverage)
					return
				}
				if ans.SamplingRate <= 0 {
					errs <- fmt.Errorf("answer rate %v not positive", ans.SamplingRate)
					return
				}
			}
		}(g)
	}
	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				batch := make([]float64, 16)
				for j := range batch {
					batch[j] = float64(40 + (g+i+j)%80)
				}
				// Partial rounds are the point of this test: crashed or
				// lossy nodes may fail their refresh, which best-effort
				// deployments absorb — the stale guarantee keeps serving.
				if err := sys.Ingest(batch); err != nil && !errors.Is(err, iot.ErrPartialRound) {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sys.SamplingRate() <= 0 {
		t.Error("sampling rate lost under chaos")
	}
	if cov := sys.Coverage(); cov <= 0 || cov > 1 {
		t.Errorf("coverage %v outside (0, 1]", cov)
	}
}
