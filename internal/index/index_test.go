package index

import (
	"math"
	"sort"
	"testing"

	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// drawSets builds k random sorted node datasets and Bernoulli-samples
// each, giving realistic rank-annotated inputs.
func drawSets(t *testing.T, rng *stats.RNG, k, maxN int, p float64) []*sampling.SampleSet {
	t.Helper()
	sets := make([]*sampling.SampleSet, k)
	for i := range sets {
		n := rng.Intn(maxN + 1)
		data := make([]float64, n)
		for j := range data {
			data[j] = float64(rng.Intn(60)) // heavy duplicates on purpose
		}
		sort.Float64s(data)
		set, err := sampling.Draw(data, p, rng.Child(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

func TestBuildRoundTrips(t *testing.T) {
	t.Parallel()
	rng := stats.NewRNG(7)
	sets := drawSets(t, rng, 9, 200, 0.4)
	ix, err := Build(sets)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != len(sets) {
		t.Fatalf("Nodes() = %d, want %d", ix.Nodes(), len(sets))
	}
	wantSamples, wantN := 0, 0
	for i, set := range sets {
		wantSamples += len(set.Samples)
		wantN += set.N
		if ix.NodeN(i) != set.N {
			t.Errorf("node %d: NodeN = %d, want %d", i, ix.NodeN(i), set.N)
		}
		values, ranks, n := ix.Node(i)
		if n != set.N {
			t.Errorf("node %d: Node n = %d, want %d", i, n, set.N)
		}
		if len(values) != len(set.Samples) || len(ranks) != len(set.Samples) {
			t.Fatalf("node %d: columns %d/%d, want %d", i, len(values), len(ranks), len(set.Samples))
		}
		for j, s := range set.Samples {
			if values[j] != s.Value || int(ranks[j]) != s.Rank {
				t.Fatalf("node %d sample %d: (%v,%d) != (%v,%d)",
					i, j, values[j], ranks[j], s.Value, s.Rank)
			}
		}
	}
	if ix.Samples() != wantSamples {
		t.Errorf("Samples() = %d, want %d", ix.Samples(), wantSamples)
	}
	if ix.TotalN() != wantN {
		t.Errorf("TotalN() = %d, want %d", ix.TotalN(), wantN)
	}
	if got, want := ix.MemoryBytes(), 12*wantSamples+4*(len(sets)+1)+4*len(sets); got != want {
		t.Errorf("MemoryBytes() = %d, want %d", got, want)
	}
}

func TestBuildEmpty(t *testing.T) {
	t.Parallel()
	ix, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != 0 || ix.Samples() != 0 || ix.TotalN() != 0 {
		t.Errorf("empty index not empty: %d nodes, %d samples, %d records",
			ix.Nodes(), ix.Samples(), ix.TotalN())
	}
	// A node with no samples still records its dataset size.
	ix, err = Build([]*sampling.SampleSet{{N: 42}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Nodes() != 1 || ix.NodeN(0) != 42 || ix.Samples() != 0 {
		t.Errorf("sampleless node mis-indexed: nodes=%d n=%d samples=%d",
			ix.Nodes(), ix.NodeN(0), ix.Samples())
	}
}

func TestBuildRejectsCorruptSets(t *testing.T) {
	t.Parallel()
	cases := map[string][]*sampling.SampleSet{
		"nil set": {nil},
		"rank zero": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 0}}}},
		"rank beyond n": {{N: 2, Samples: []sampling.Sample{
			{Value: 1, Rank: 3}}}},
		"ranks not increasing": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 2}, {Value: 2, Rank: 2}}}},
		"values decreasing": {{N: 5, Samples: []sampling.Sample{
			{Value: 2, Rank: 1}, {Value: 1, Rank: 2}}}},
		"NaN first": {{N: 5, Samples: []sampling.Sample{
			{Value: math.NaN(), Rank: 1}, {Value: 2, Rank: 2}}}},
		"NaN middle": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 1}, {Value: math.NaN(), Rank: 2}, {Value: 3, Rank: 3}}}},
		"NaN last": {{N: 5, Samples: []sampling.Sample{
			{Value: 1, Rank: 1}, {Value: math.NaN(), Rank: 2}}}},
		"n outside int32": {{N: math.MaxInt32 + 1}},
		"negative n":      {{N: -1}},
	}
	for name, sets := range cases {
		if _, err := Build(sets); err == nil {
			t.Errorf("%s: Build accepted corrupt input", name)
		}
	}
}

// TestIndexIsACopy pins the immutability contract: mutating the source
// sets after Build must not reach the index.
func TestIndexIsACopy(t *testing.T) {
	t.Parallel()
	set := &sampling.SampleSet{N: 3, Samples: []sampling.Sample{
		{Value: 1, Rank: 1}, {Value: 2, Rank: 3},
	}}
	ix, err := Build([]*sampling.SampleSet{set})
	if err != nil {
		t.Fatal(err)
	}
	set.Samples[0].Value = 99
	values, ranks, _ := ix.Node(0)
	if values[0] != 1 || ranks[0] != 1 {
		t.Errorf("index aliases its input: values[0]=%v ranks[0]=%d", values[0], ranks[0])
	}
}
