package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privrange"
	"privrange/internal/dataset"
)

// Sizes of the ingest-batch workload.
const (
	ingestNodes   = 64
	ingestShards  = 4
	ingestReading = 288 // readings per Ingest call: one day at 5-minute cadence
	batchQueries  = 32
	// roundScale fixes the work per run: a run of s seconds does
	// roundScale·√s rounds whatever the machine's speed. Each round's
	// cost grows with the ingested data, so a run's time grows with the
	// square of its rounds; on a 2-core x86 box the run then lasts about
	// s seconds.
	roundScale = 625
)

// ingestInputs is everything ingest-batch feeds the system: the initial
// readings, the readings each round ingests, and each round's ranges.
type ingestInputs struct {
	initial []float64
	chunks  [][]float64
	ranges  [][]privrange.Range
	lo, hi  float64
}

func makeIngestInputs(seed int64, rounds int) (*ingestInputs, error) {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	more, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: seed + 1, Records: (rounds + 1) * ingestReading})
	if err != nil {
		return nil, err
	}
	in := &ingestInputs{initial: series.Values, lo: math.Inf(1), hi: math.Inf(-1)}
	for _, v := range series.Values {
		in.lo, in.hi = math.Min(in.lo, v), math.Max(in.hi, v)
	}
	rng := rand.New(rand.NewSource(seed*31337 + 5))
	for r := 0; r <= rounds; r++ {
		in.chunks = append(in.chunks, more.Values[r*ingestReading:(r+1)*ingestReading])
		qs := make([]privrange.Range, batchQueries)
		for i := range qs {
			qs[i].L, qs[i].U = randomRange(rng, in.lo, in.hi)
		}
		in.ranges = append(in.ranges, qs)
	}
	return in, nil
}

// counts is exact ground truth over integer-valued readings: one bucket
// per integer value.
type counts struct {
	byValue map[int]int
	n       int
}

func (c *counts) add(values []float64) error {
	for _, v := range values {
		if v != math.Round(v) {
			return fmt.Errorf("reading %v is not integer-valued", v)
		}
		c.byValue[int(v)]++
	}
	c.n += len(values)
	return nil
}

func (c *counts) count(l, u float64) int {
	total := 0
	for v, k := range c.byValue {
		if l <= float64(v) && float64(v) <= u {
			total += k
		}
	}
	return total
}

func newIngestSystem(values []float64, seed int64) (*privrange.System, error) {
	return privrange.NewSystem(values, privrange.Options{Nodes: ingestNodes, Shards: ingestShards, Seed: seed})
}

// runIngestBatch is the ingest-batch workload: the library facade with
// 64 nodes over 4 shards ingests 288 readings per round and answers a
// 32-range CountBatch after each ingest.
func runIngestBatch(cfg *config, traced bool, seconds float64, reps int) (*pass, error) {
	p := newPass("ingest-batch")
	rounds := max(1, int(math.Round(roundScale*math.Sqrt(seconds))))
	in, err := makeIngestInputs(cfg.seed, rounds)
	if err != nil {
		return nil, err
	}
	acc := privrange.Accuracy{Alpha: batchTier.Alpha, Delta: batchTier.Delta}
	c := newChecker(cfg.corrupt)
	truth := &counts{byValue: map[int]int{}}
	if err := truth.add(in.initial); err != nil {
		return nil, err
	}
	checkBatch := func(ranges []privrange.Range, answers []*privrange.Answer) {
		for i, a := range answers {
			if a.N != truth.n {
				c.failf("answer over n=%d, ingested %d readings", a.N, truth.n)
			}
			c.epsilon(batchTier, a.SamplingRate, ingestNodes, a.N, a.EpsilonPrime)
			c.answer(batchTier, a.N, a.Value, truth.count(ranges[i].L, ranges[i].U))
			p.eps = append(p.eps, a.EpsilonPrime)
		}
	}

	var sys *privrange.System
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		if sys, err = newIngestSystem(series.Values, cfg.seed); err != nil {
			return nil, err
		}
		answers, err := sys.CountBatch(in.ranges[0], acc)
		if err != nil {
			return nil, fmt.Errorf("first batch: %w", err)
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if rep == reps-1 {
			checkBatch(in.ranges[0], answers)
		}
	}

	cost0 := sys.Cost()
	t0 := time.Now()
	for r := 1; r <= rounds; r++ {
		t1 := time.Now()
		err := sys.Ingest(in.chunks[r-1])
		t2 := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			c.failf("ingest round %d: %v", r, err)
			continue
		}
		p.support = append(p.support, ms(t2.Sub(t1)))
		if err := truth.add(in.chunks[r-1]); err != nil {
			return nil, err
		}
		answers, err := sys.CountBatch(in.ranges[r], acc)
		t3 := time.Now()
		p.attempted++
		if err != nil {
			p.failed++
			c.failf("batch round %d: %v", r, err)
			continue
		}
		p.release = append(p.release, ms(t3.Sub(t2)))
		if traced {
			p.spans = append(p.spans,
				span{Name: "privrange.ingest", Req: r, Start: t1.Sub(t0).Nanoseconds(), End: t2.Sub(t0).Nanoseconds()},
				span{Name: "privrange.count_batch", Req: r, Start: t2.Sub(t0).Nanoseconds(), End: t3.Sub(t0).Nanoseconds()})
		}
		checkBatch(in.ranges[r], answers)
	}
	p.elapsed = time.Since(t0)
	cost := sys.Cost()
	p.layer["iot.bytes_per_round"] = float64(cost.Bytes-cost0.Bytes) / float64(rounds)
	p.layer["iot.samples_per_round"] = float64(cost.SamplesShipped-cost0.SamplesShipped) / float64(rounds)
	if p.rssMB, err = peakRSSMB("self"); err != nil {
		return nil, err
	}
	c.finish()
	p.problems = c.problems
	p.ingest = in
	return p, nil
}
