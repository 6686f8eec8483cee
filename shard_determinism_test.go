package privrange

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// shardTestValues builds a dataset with heavy duplicates — the
// adversarial shape for rank semantics.
func shardTestValues(n int) []float64 {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64((i * 7919) % 500)
	}
	return values
}

// releaseScript drives one deterministic mixed workload — single
// counts, a batch, an ingest round, more counts — and returns every
// released value in order. Two systems over the same data and seed must
// produce bit-identical scripts regardless of shard count.
func releaseScript(t *testing.T, sys *System) []float64 {
	t.Helper()
	acc := Accuracy{Alpha: 0.05, Delta: 0.8}
	var out []float64
	record := func(ans *Answer, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ans.Value, ans.Clamped, ans.EpsilonPrime, ans.SamplingRate, ans.Coverage,
			float64(ans.N), float64(ans.Nodes))
	}
	record(sys.Count(100, 300, acc))
	record(sys.Count(0, 50, acc))
	batch, err := sys.CountBatch([]Range{{L: 10, U: 490}, {L: 250, U: 250}, {L: -5, U: 120}}, acc)
	if err != nil {
		t.Fatal(err)
	}
	for _, ans := range batch {
		out = append(out, ans.Value, ans.EpsilonPrime)
	}
	if err := sys.Ingest(shardTestValues(300)); err != nil {
		t.Fatal(err)
	}
	record(sys.Count(100, 300, acc))
	record(sys.Count(400, 499, Accuracy{Alpha: 0.08, Delta: 0.7}))
	out = append(out, sys.SpentBudget(), float64(sys.N()), sys.SamplingRate())
	return out
}

// TestCountBatchMatchesSerialCounts pins CountBatch's release contract:
// a batch releases and costs exactly what Count releases and costs for
// the same ranges asked one at a time — the same noise draws in order,
// plans, provenance and Σε′ — on a single broker and a sharded one, and
// with the answer cache on, where a repeat is served free from the
// cache inside a batch as it is across Count calls.
func TestCountBatchMatchesSerialCounts(t *testing.T) {
	t.Parallel()
	values := shardTestValues(6000)
	acc := Accuracy{Alpha: 0.05, Delta: 0.8}
	ranges := []Range{{L: 100, U: 300}, {L: 0, U: 50}, {L: 250, U: 250}, {L: 100, U: 300}, {L: -5, U: 499}}
	for _, shards := range []int{1, 4} {
		for _, cache := range []bool{false, true} {
			t.Run(fmt.Sprintf("S=%d/cache=%v", shards, cache), func(t *testing.T) {
				t.Parallel()
				opt := Options{Nodes: 16, Shards: shards, Seed: 5, CacheAnswers: cache}
				batchSys, err := NewSystem(values, opt)
				if err != nil {
					t.Fatal(err)
				}
				serialSys, err := NewSystem(values, opt)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := batchSys.CountBatch(ranges, acc)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) != len(ranges) {
					t.Fatalf("got %d answers for %d ranges", len(batch), len(ranges))
				}
				for i, r := range ranges {
					want, err := serialSys.Count(r.L, r.U, acc)
					if err != nil {
						t.Fatal(err)
					}
					if *batch[i] != *want || math.Float64bits(batch[i].Value) != math.Float64bits(want.Value) {
						t.Errorf("range %d %v: batch %+v, serial %+v", i, r, *batch[i], *want)
					}
				}
				if got, want := batchSys.SpentBudget(), serialSys.SpentBudget(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("batch spent %v, serial spent %v", got, want)
				}
			})
		}
	}
}

// TestShardCountDeterminism is the tentpole's acceptance bar: for any
// shard count S and any GOMAXPROCS, a sharded deployment releases
// answers bit-identical to the single-broker engine over the same data
// and seed — same noise, same plans, same provenance, same budget
// trail. (CollectionVersion is deliberately not compared: it composes
// as a sum of per-shard versions, monotonic but not numerically equal.)
func TestShardCountDeterminism(t *testing.T) {
	values := shardTestValues(6000)
	run := func(shards, procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		sys, err := NewSystem(values, Options{Nodes: 48, Seed: 17, Shards: shards})
		if err != nil {
			t.Fatalf("S=%d: %v", shards, err)
		}
		return releaseScript(t, sys)
	}
	want := run(0, runtime.NumCPU()) // unsharded oracle
	for _, s := range []int{1, 2, 3, 8} {
		for _, procs := range []int{1, runtime.NumCPU()} {
			got := run(s, procs)
			if len(got) != len(want) {
				t.Fatalf("S=%d procs=%d: script length %d != %d", s, procs, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("S=%d procs=%d release %d: %v != oracle %v", s, procs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardSingleChargePerQuery pins the tentpole's release discipline:
// a sharded deployment charges the accountant exactly once per released
// query — never once per shard.
func TestShardSingleChargePerQuery(t *testing.T) {
	values := shardTestValues(4000)
	acc := Accuracy{Alpha: 0.05, Delta: 0.8}
	single, err := NewSystem(values, Options{Nodes: 32, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSystem(values, Options{Nodes: 32, Seed: 6, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*System{single, sharded} {
		if _, err := sys.Count(100, 300, acc); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.CountBatch([]Range{{L: 0, U: 100}, {L: 200, U: 400}}, acc); err != nil {
			t.Fatal(err)
		}
	}
	if single.SpentBudget() != sharded.SpentBudget() {
		t.Errorf("sharded spent %v, single-broker %v: shards must not multiply charges",
			sharded.SpentBudget(), single.SpentBudget())
	}
	if single.accountant.Queries() != sharded.accountant.Queries() {
		t.Errorf("sharded released %d accountant charges, single-broker %d",
			sharded.accountant.Queries(), single.accountant.Queries())
	}
}
