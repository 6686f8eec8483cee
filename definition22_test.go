package privrange

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"privrange/internal/dataset"
	"privrange/internal/market"
	"privrange/internal/pricing"
	"privrange/internal/stats"
)

// def22Level is the significance of the one-sided binomial test on each
// tier's hit rate, the one perfbench applies: the gate fails only when
// a hit count this low has probability below it under a true hit rate
// of exactly δ.
const def22Level = 1e-4

// binomLowerTail returns Pr[X ≤ k] for X ~ Binomial(n, p), summed in log
// space.
func binomLowerTail(k, n int, p float64) float64 {
	if k >= n {
		return 1
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := 0; i <= k; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgNI + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return math.Min(1, sum)
}

// gateDeployment is one workload shape the gate releases over: a facade
// deployment, its accuracy tiers, and per seed the release rounds, each
// after the first preceded by the ingest of one chunk of readings.
type gateDeployment struct {
	name     string
	opt      Options
	tiers    []Accuracy
	rounds   int
	perRound int
}

// gatePaths are the release paths the gate drives: the facade's serial
// and batch counts, and market sales, serial and coalesced.
var gatePaths = []string{"count", "count-batch", "buy", "buy-coalesced"}

// gateSeeds seed every deployment the gate builds: sampling, noise and
// ranges. Each seed releases rounds·perRound answers per tier and path.
var gateSeeds = []int64{1, 2, 3, 4, 5}

// TestDefinition22AtCollectionRates tests the contract that is sold —
// each released answer lies within αn of the exact count with
// probability at least δ (Definition 2.2) — at the rates auto-collection
// now picks. It releases 200 answers per tier and path: buy-open's four
// tiers on 16 nodes over the seed-1 ozone series, and ingest-batch's
// (0.1, 0.8) on 64 nodes over 4 shards with 288 readings ingested
// between rounds.
func TestDefinition22AtCollectionRates(t *testing.T) {
	t.Parallel()
	initial := testSeries(t, 1).Values
	more, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 2, Records: 4 * 288})
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]float64
	for r := 0; r < 4; r++ {
		chunks = append(chunks, more.Values[r*288:(r+1)*288])
	}
	deployments := []gateDeployment{
		{name: "buy-open", opt: Options{Nodes: 16}, rounds: 1, perRound: 40,
			tiers: []Accuracy{{0.01, 0.9}, {0.02, 0.8}, {0.05, 0.9}, {0.1, 0.7}}},
		{name: "ingest-batch", opt: Options{Nodes: 64, Shards: 4}, rounds: 4, perRound: 10,
			tiers: []Accuracy{{0.1, 0.8}}},
	}
	for _, dep := range deployments {
		for _, acc := range dep.tiers {
			for _, path := range gatePaths {
				dep, acc, path := dep, acc, path
				t.Run(fmt.Sprintf("%s/a=%v,d=%v/%s", dep.name, acc.Alpha, acc.Delta, path), func(t *testing.T) {
					t.Parallel()
					within, answers := 0, 0
					for _, seed := range gateSeeds {
						w, a := gateRelease(t, dep, acc, path, seed, initial, chunks)
						within += w
						answers += a
					}
					if answers < 200 {
						t.Fatalf("released %d answers, the gate needs 200", answers)
					}
					tail := binomLowerTail(within, answers, acc.Delta)
					t.Logf("%s: %d of %d within αn (%.3f); Pr[Bin(%d, %v) ≤ %d] = %.3g", t.Name(),
						within, answers, float64(within)/float64(answers), answers, acc.Delta, within, tail)
					if tail < def22Level {
						t.Errorf("%d of %d answers within αn: Pr[Bin(%d, %v) ≤ %d] = %.3g < %g",
							within, answers, answers, acc.Delta, within, tail, def22Level)
					}
				})
			}
		}
	}
}

// gateRelease builds one deployment at seed and releases its rounds of
// answers at acc through path, scoring each against the exact count over
// the data ingested so far. It returns how many fell within αn.
func gateRelease(t *testing.T, dep gateDeployment, acc Accuracy, path string, seed int64, initial []float64, chunks [][]float64) (within, answers int) {
	t.Helper()
	opt := dep.opt
	opt.Seed = seed
	sys, err := NewSystem(initial, opt)
	if err != nil {
		t.Fatal(err)
	}
	var broker *market.Broker
	if path == "buy" || path == "buy-coalesced" {
		if broker, err = market.NewBroker(pricing.InverseVariance{C: 1e9}); err != nil {
			t.Fatal(err)
		}
		if err := broker.Register("ozone", sys.engine, len(initial), opt.Nodes); err != nil {
			t.Fatal(err)
		}
		if path == "buy-coalesced" {
			defer broker.EnableCoalescing(market.CoalesceConfig{Window: 2 * time.Millisecond}).Close()
		}
	}
	sorted := append([]float64(nil), initial...)
	sort.Float64s(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	rng := stats.NewRNG(seed*7919 + 1)
	for r := 0; r < dep.rounds; r++ {
		if r > 0 {
			if err := sys.Ingest(chunks[r-1]); err != nil {
				t.Fatal(err)
			}
			sorted = append(sorted, chunks[r-1]...)
			sort.Float64s(sorted)
		}
		ranges := make([]Range, dep.perRound)
		for i := range ranges {
			width := (hi - lo) * (0.01 + 0.49*rng.Float64())
			ranges[i].L = lo + (hi-lo-width)*rng.Float64()
			ranges[i].U = ranges[i].L + width
		}
		values := gateValues(t, sys, broker, path, ranges, acc)
		n := len(sorted)
		for i, q := range ranges {
			truth := sort.SearchFloat64s(sorted, math.Nextafter(q.U, math.Inf(1))) - sort.SearchFloat64s(sorted, q.L)
			if math.Abs(values[i]-float64(truth)) <= acc.Alpha*float64(n) {
				within++
			}
		}
		answers += len(ranges)
	}
	return within, answers
}

// gateValues releases one answer per range through path and returns
// the released values in range order.
func gateValues(t *testing.T, sys *System, broker *market.Broker, path string, ranges []Range, acc Accuracy) []float64 {
	t.Helper()
	values := make([]float64, len(ranges))
	switch path {
	case "count":
		for i, q := range ranges {
			a, err := sys.Count(q.L, q.U, acc)
			if err != nil {
				t.Fatal(err)
			}
			values[i] = a.Value
		}
	case "count-batch":
		answers, err := sys.CountBatch(ranges, acc)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range answers {
			values[i] = a.Value
		}
	case "buy":
		for i, q := range ranges {
			resp, err := broker.Buy(market.Request{Op: "buy", Dataset: "ozone", Customer: "c",
				L: q.L, U: q.U, Alpha: acc.Alpha, Delta: acc.Delta})
			if err != nil {
				t.Fatal(err)
			}
			values[i] = resp.Value
		}
	case "buy-coalesced":
		resps := make([]*market.Response, len(ranges))
		var wg sync.WaitGroup
		for i, q := range ranges {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i] = broker.Handle(market.Request{Op: "buy", Dataset: "ozone", Customer: fmt.Sprintf("c%d", i),
					L: q.L, U: q.U, Alpha: acc.Alpha, Delta: acc.Delta})
			}()
		}
		wg.Wait()
		for i, resp := range resps {
			if !resp.OK {
				t.Fatalf("coalesced buy %d: %s", i, resp.Error)
			}
			values[i] = resp.Value
		}
	}
	return values
}
