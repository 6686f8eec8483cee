package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"privrange/internal/dataset"
	"privrange/internal/market"
)

// tier is one entry of the fixed accuracy price list buyers choose from.
type tier struct{ Alpha, Delta float64 }

// priceList is buy-open's four-tier accuracy menu. Every tier is
// feasible on the daemon's 16-node split of 17,568 readings.
var priceList = []tier{{0.01, 0.9}, {0.02, 0.8}, {0.05, 0.9}, {0.1, 0.7}}

// durableTier is the single accuracy trade-durable buys at.
var durableTier = tier{0.05, 0.9}

// batchTier is the accuracy of ingest-batch's CountBatch calls.
var batchTier = tier{0.1, 0.8}

// daemonNodes is privranged's default -nodes value: the engine's k for
// every dataset the daemon serves.
const daemonNodes = 16

// inputs is a generated dataset: the CSV the daemon loads and, per
// dataset name, the sorted values that give exact ground truth.
type inputs struct {
	csv    string
	names  []string
	values map[string][]float64 // raw order, as the daemon partitions it
	sorted map[string][]float64
	lo, hi map[string]float64 // value domain per dataset
}

// makeInputs generates the seed's pollution table and writes it as CSV
// under dir.
func makeInputs(dir string, seed int64) (*inputs, error) {
	table, err := dataset.Generate(dataset.GenerateConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{
		csv:    filepath.Join(dir, "data.csv"),
		values: map[string][]float64{},
		sorted: map[string][]float64{},
		lo:     map[string]float64{},
		hi:     map[string]float64{},
	}
	f, err := os.Create(in.csv)
	if err != nil {
		return nil, err
	}
	if err := table.WriteCSV(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", in.csv, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	for _, p := range dataset.Pollutants() {
		s, err := table.Series(p)
		if err != nil {
			return nil, err
		}
		name := p.String()
		in.names = append(in.names, name)
		in.values[name] = s.Values
		sorted := append([]float64(nil), s.Values...)
		sort.Float64s(sorted)
		in.sorted[name] = sorted
		in.lo[name], in.hi[name] = sorted[0], sorted[len(sorted)-1]
	}
	return in, nil
}

// truth is the exact range count |{x : l ≤ x ≤ u}| on a dataset.
func (in *inputs) truth(name string, l, u float64) int {
	s := in.sorted[name]
	return sort.SearchFloat64s(s, math.Nextafter(u, math.Inf(1))) - sort.SearchFloat64s(s, l)
}

// randomRange draws a range whose width is 1% to 50% of [lo, hi].
func randomRange(rng *rand.Rand, lo, hi float64) (float64, float64) {
	span := hi - lo
	width := span * (0.01 + 0.49*rng.Float64())
	l := lo + (span-width)*rng.Float64()
	return l, l + width
}

// op is one pre-generated request: what to send, when it is due
// (open loop only) and, for buys, which accuracy tier it belongs to.
type op struct {
	Due  time.Duration
	Req  market.Request
	Tier int
}

// openLoopStream builds buy-open's request schedule: count requests due
// at a fixed spacing of 1/rate, buy 70 / quote 30 with exact quotas,
// tiers and datasets cycled evenly through the buys and shuffled, so
// every seed sells the same tier mix.
func openLoopStream(in *inputs, seed int64, rate float64, count int, customers int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	buys := int(math.Round(0.7 * float64(count)))
	ops := make([]op, count)
	for i := range ops {
		t := i % len(priceList)
		name := in.names[(i/len(priceList))%len(in.names)]
		req := market.Request{Dataset: name, Alpha: priceList[t].Alpha, Delta: priceList[t].Delta}
		if i < buys {
			req.Op = "buy"
			req.L, req.U = randomRange(rng, in.lo[name], in.hi[name])
		} else {
			req.Op = "quote"
		}
		ops[i] = op{Req: req, Tier: t}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
		ops[i].Req.Customer = fmt.Sprintf("c%d", i%customers)
	}
	return ops
}

// closedLoopStream builds one trade-durable customer's operation list:
// buy 50 / deposit 50 with exact quotas, shuffled. A deposit's Amount is
// a factor in [1, 2) that the runner multiplies by the dearest quote,
// so deposits always outpace spending.
func closedLoopStream(in *inputs, seed int64, customer string, index, count int) []op {
	rng := rand.New(rand.NewSource(seed*104729 + int64(index)))
	ops := make([]op, count)
	for i := range ops {
		if i%2 == 0 {
			name := in.names[(i/2)%len(in.names)]
			l, u := randomRange(rng, in.lo[name], in.hi[name])
			ops[i] = op{Req: market.Request{Op: "buy", Dataset: name, Customer: customer,
				L: l, U: u, Alpha: durableTier.Alpha, Delta: durableTier.Delta}}
		} else {
			ops[i] = op{Req: market.Request{Op: "deposit", Customer: customer, Amount: 1 + rng.Float64()}}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
