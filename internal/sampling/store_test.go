package sampling

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"privrange/internal/dataset"
	"privrange/internal/stats"
)

func TestNodeStoreBasic(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(1, 42)
	if ns.Len() != 0 || ns.SampleCount() != 0 || ns.Rate() != 0 {
		t.Fatal("new store should be empty")
	}
	ns.AddAll([]float64{5, 1, 3, 3, 9})
	if ns.Len() != 5 {
		t.Errorf("Len = %d, want 5", ns.Len())
	}
	if c, err := ns.CountRange(2, 5); err != nil || c != 3 {
		t.Errorf("CountRange = %d, %v; want 3", c, err)
	}
	if _, err := ns.CountRange(5, 2); err == nil {
		t.Error("CountRange with l > u should fail")
	}
	set, err := ns.SampleAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Samples) != 5 {
		t.Errorf("p=1 sample should include everything, got %d", len(set.Samples))
	}
	if err := set.Validate(); err != nil {
		t.Errorf("sample invalid: %v", err)
	}
	if ns.Rate() != 1 {
		t.Errorf("Rate = %v, want 1", ns.Rate())
	}
}

func TestNodeStoreRejectsBadRate(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(1, 1)
	ns.Add(1)
	if _, err := ns.SampleAt(-0.5); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := ns.SampleAt(1.5); err == nil {
		t.Error("rate > 1 should fail")
	}
	if _, err := ns.SampleAt(math.NaN()); err == nil {
		t.Error("NaN rate should fail")
	}
}

// TestNodeStoreRankByRank checks the gap sampler one rank at a time over
// many stores with a fixed seed: after a full draw at p and after a
// top-up to p1, every rank's inclusion frequency is within 5 standard
// errors of p (p1), so an off-by-one that never picks rank 1 or rank n
// fails; every value equals the sorted data at its rank; a top-up keeps
// every rank of the draw it extends.
func TestNodeStoreRankByRank(t *testing.T) {
	t.Parallel()
	const size, stores = 50, 4000
	data := make([]float64, size)
	for i := range data {
		data[i] = float64((i * 7) % 9) // duplicates, out of order
	}
	sorted := newOracle(data).sorted
	for _, rates := range [][2]float64{{0.2, 0.5}, {0.03, 0.9}} {
		p, p1 := rates[0], rates[1]
		drawn := make([]int, size+1)
		topped := make([]int, size+1)
		for k := 0; k < stores; k++ {
			ns := NewNodeStore(k, int64(1000+k))
			ns.AddAll(data)
			low, err := ns.SampleAt(p)
			if err != nil {
				t.Fatal(err)
			}
			high, err := ns.SampleAt(p1)
			if err != nil {
				t.Fatal(err)
			}
			inHigh := make(map[int]bool, len(high.Samples))
			for _, set := range []*SampleSet{low, high} {
				if err := set.Validate(); err != nil || set.N != size {
					t.Fatalf("store %d: set over N=%d invalid: %v", k, set.N, err)
				}
				for _, s := range set.Samples {
					if want := sorted[s.Rank-1]; s.Value != want {
						t.Fatalf("store %d: rank %d holds %v, want %v", k, s.Rank, s.Value, want)
					}
				}
			}
			for _, s := range high.Samples {
				topped[s.Rank]++
				inHigh[s.Rank] = true
			}
			for _, s := range low.Samples {
				drawn[s.Rank]++
				if !inHigh[s.Rank] {
					t.Fatalf("store %d: top-up %v→%v dropped rank %d", k, p, p1, s.Rank)
				}
			}
		}
		checkInclusion(t, "full draw", drawn, stores, p)
		checkInclusion(t, "top-up", topped, stores, p1)
	}
}

// checkInclusion fails when any rank's inclusion frequency over trials
// lies more than 5 standard errors from p. counts is indexed by rank.
func checkInclusion(t *testing.T, stage string, counts []int, trials int, p float64) {
	t.Helper()
	se := math.Sqrt(p * (1 - p) / float64(trials))
	for r := 1; r < len(counts); r++ {
		if got := float64(counts[r]) / float64(trials); math.Abs(got-p) > 5*se {
			t.Errorf("%s at p=%v: rank %d included with frequency %v, want %v ± %v", stage, p, r, got, p, 5*se)
		}
	}
}

func TestNodeStoreTopUpPreservesExistingSamples(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(3, 7)
	for i := 0; i < 10000; i++ {
		ns.Add(float64(i))
	}
	low, err := ns.SampleAt(0.1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := ns.SampleAt(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(high.Samples) <= len(low.Samples) {
		t.Fatalf("top-up did not grow sample: %d -> %d", len(low.Samples), len(high.Samples))
	}
	// Every sample from the low draw must survive the top-up (the node
	// already shipped them; discarding would waste communication).
	inHigh := make(map[int]bool, len(high.Samples))
	for _, s := range high.Samples {
		inHigh[s.Rank] = true
	}
	for _, s := range low.Samples {
		if !inHigh[s.Rank] {
			t.Fatalf("sample rank %d lost during top-up", s.Rank)
		}
	}
	// Final rate should be ~0.4.
	rate := float64(len(high.Samples)) / float64(ns.Len())
	if math.Abs(rate-0.4) > 0.03 {
		t.Errorf("post-top-up empirical rate = %v, want ~0.4", rate)
	}
}

func TestNodeStoreInsertInvalidatesSample(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(4, 9)
	for i := 0; i < 100; i++ {
		ns.Add(float64(i))
	}
	if _, err := ns.SampleAt(0.5); err != nil {
		t.Fatal(err)
	}
	ns.Add(1000)
	set, err := ns.SampleAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if set.N != 101 {
		t.Errorf("sample after insert should see new size, got N=%d", set.N)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("sample invalid after refresh: %v", err)
	}
}

func TestNodeStoreLowerRateRedraws(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(5, 11)
	for i := 0; i < 5000; i++ {
		ns.Add(float64(i))
	}
	if _, err := ns.SampleAt(0.5); err != nil {
		t.Fatal(err)
	}
	set, err := ns.SampleAt(0.1)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(set.Samples)) / 5000
	if math.Abs(rate-0.1) > 0.02 {
		t.Errorf("redraw at lower rate = %v, want ~0.1", rate)
	}
}

func TestNodeStoreSameRateIsStable(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(6, 13)
	for i := 0; i < 1000; i++ {
		ns.Add(float64(i))
	}
	a, err := ns.SampleAt(0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ns.SampleAt(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("re-requesting the same rate should not redraw")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatal("re-requesting the same rate should return the same sample")
		}
	}
}

// TestSampleCountTracksDrawsAndTopUps pins SampleCount to the sample
// SampleAt returns, across full draws, top-ups and data invalidation.
func TestSampleCountTracksDrawsAndTopUps(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(2, 11)
	data := make([]float64, 500)
	for i := range data {
		data[i] = float64(i % 37)
	}
	ns.AddAll(data)
	check := func(stage string) {
		set, err := ns.SampleAt(ns.Rate())
		if err != nil {
			t.Fatal(err)
		}
		if ns.SampleCount() != len(set.Samples) {
			t.Fatalf("%s: SampleCount = %d, set has %d", stage, ns.SampleCount(), len(set.Samples))
		}
	}
	if _, err := ns.SampleAt(0.2); err != nil {
		t.Fatal(err)
	}
	check("after full draw")
	if _, err := ns.SampleAt(0.5); err != nil {
		t.Fatal(err)
	}
	check("after top-up")
	if _, err := ns.SampleAt(0.9); err != nil {
		t.Fatal(err)
	}
	check("after second top-up")
	// Lowering the rate redraws from scratch.
	if _, err := ns.SampleAt(0.1); err != nil {
		t.Fatal(err)
	}
	check("after redraw at lower rate")
	// New data invalidates the sample; the next draw recounts.
	ns.Add(999)
	if _, err := ns.SampleAt(0.1); err != nil {
		t.Fatal(err)
	}
	check("after invalidating insert")
	if _, err := ns.SampleAt(1); err != nil {
		t.Fatal(err)
	}
	if ns.SampleCount() != ns.Len() {
		t.Fatalf("p=1: SampleCount = %d, want %d", ns.SampleCount(), ns.Len())
	}
}

// TestCachedSortedSeesNewData guards the stored sample against stale
// ranks: a draw after an insert must sample the new value's world, not
// the sample kept from before it.
func TestCachedSortedSeesNewData(t *testing.T) {
	t.Parallel()
	ns := NewNodeStore(4, 23)
	ns.AddAll([]float64{1, 2, 3})
	if _, err := ns.SampleAt(1); err != nil {
		t.Fatal(err)
	}
	ns.Add(0.5) // shifts every rank
	set, err := ns.SampleAt(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Samples) != 4 || set.N != 4 {
		t.Fatalf("post-insert draw has %d samples over N=%d, want 4/4", len(set.Samples), set.N)
	}
	if set.Samples[0].Value != 0.5 || set.Samples[0].Rank != 1 {
		t.Fatalf("first sample = (%v,%d), want the inserted (0.5,1)", set.Samples[0].Value, set.Samples[0].Rank)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
}

// benchRate and benchSizes are of the order of perfbench ingest-batch's
// collection rate and of a node's dataset early, midway and late in
// its run.
const benchRate = 0.0286

var benchSizes = []int{1100, 6500, 12800}

// benchReadings returns n readings of one kind: "ozone" is the
// synthetic CityPulse ozone series, integer-valued with about a hundred
// distinct values; "continuous" is uniform on [0, 200), all distinct.
func benchReadings(b *testing.B, kind string, n int) []float64 {
	b.Helper()
	if kind == "continuous" {
		rng := stats.NewRNG(5)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = 200 * rng.Float64()
		}
		return vs
	}
	s, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 5, Records: n})
	if err != nil {
		b.Fatal(err)
	}
	return s.Values
}

// benchStores runs fn once per data kind and size n, with n readings
// of that kind in base and n/10 more in extra.
func benchStores(b *testing.B, fn func(b *testing.B, base, extra []float64)) {
	for _, kind := range []string{"ozone", "continuous"} {
		for _, n := range benchSizes {
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				data := benchReadings(b, kind, n+n/10)
				fn(b, data[:n], data[n:])
			})
		}
	}
}

func filledStore(vs []float64) *NodeStore {
	ns := NewNodeStore(0, 1)
	ns.AddAll(vs)
	return ns
}

// BenchmarkNodeStoreInsert times one Add into a store of about n
// readings: after every n/10 inserts the store is rebuilt at n, off the
// clock.
func BenchmarkNodeStoreInsert(b *testing.B) {
	benchStores(b, func(b *testing.B, base, extra []float64) {
		ns := filledStore(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(extra)
			if k == 0 && i > 0 {
				b.StopTimer()
				ns = filledStore(base)
				b.StartTimer()
			}
			ns.Add(extra[k])
		}
	})
}

// BenchmarkNodeStoreDraw times one full draw at benchRate. Each
// iteration asks for a rate a hair below the last, which forces a full
// draw without touching the data.
func BenchmarkNodeStoreDraw(b *testing.B) {
	benchStores(b, func(b *testing.B, base, _ []float64) {
		ns := filledStore(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ns.SampleAt(benchRate * (1 - float64(i)*1e-12)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNodeStoreCountRange times one exact range count, over ranges
// whose bounds are readings of the store.
func BenchmarkNodeStoreCountRange(b *testing.B) {
	benchStores(b, func(b *testing.B, base, _ []float64) {
		ns := filledStore(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l, u := base[(2*i)%len(base)], base[(2*i+1)%len(base)]
			if l > u {
				l, u = u, l
			}
			if _, err := ns.CountRange(l, u); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzNodeStore decodes its input into a sequence of Add, AddAll,
// SampleAt and CountRange calls on one store: integer-heavy, ±0,
// arbitrary non-NaN and ramped readings; full draws, top-ups and
// lowered rates. After every step it checks the store against a sorted
// slice of the readings added, in which a reading equal to a stored one
// takes that one's bits, as the store keeps the first representative:
// Len, strictly ascending ranks, every sampled value bit for bit at its
// rank, a top-up keeping every rank it extends, and CountRange.
func FuzzNodeStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 20, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 30, 31, 3, 128, 3, 255, 3, 64, 4, 5, 9})
	f.Add([]byte{2, 201, 7, 3, 7, 3, 100, 3, 50, 2, 150, 5, 3, 60, 4, 0, 20, 4, 9, 9})
	f.Add([]byte{0, 0xf0, 0, 4, 3, 255, 4, 0xf0, 4, 0, 0xff, 0x3f, 0xf0, 0, 0, 0, 0, 0, 1, 3, 40})
	const maxReadings = 1024
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		// value decodes one reading: a small integer, −0, or any
		// non-NaN float64 from the next eight bytes.
		value := func() float64 {
			switch b := next(); {
			case b < 0xf0:
				return float64(b%24) - 4
			case b == 0xf0:
				return math.Copysign(0, -1)
			default:
				var bits uint64
				for i := 0; i < 8; i++ {
					bits = bits<<8 | uint64(next())
				}
				if v := math.Float64frombits(bits); !math.IsNaN(v) {
					return v
				}
				return float64(b)
			}
		}
		ns := NewNodeStore(1, 7)
		var sorted []float64
		// batch returns up to k readings from gen, as many as still fit,
		// and records them in sorted.
		batch := func(k int, gen func(i int) float64) []float64 {
			vs := make([]float64, min(k, maxReadings-len(sorted)))
			for i := range vs {
				v := gen(i)
				vs[i] = v
				j := sort.SearchFloat64s(sorted, v)
				if j < len(sorted) && sorted[j] == v {
					v = sorted[j]
				}
				sorted = slices.Insert(sorted, j, v)
			}
			return vs
		}
		var last *SampleSet // the last sample, while the data is unchanged
		for len(in) > 0 {
			switch next() % 5 {
			case 0:
				for _, v := range batch(1, func(int) float64 { return value() }) {
					ns.Add(v)
				}
				last = nil
			case 1:
				ns.AddAll(batch(int(next()%32), func(int) float64 { return value() }))
				last = nil
			case 2:
				k := int(next())
				base, step := value(), 0.37
				if k%2 == 1 {
					step = -step
				}
				ns.AddAll(batch(4*k, func(i int) float64 { return base + float64(i)*step }))
				last = nil
			case 3:
				p, rate := float64(next())/255, ns.Rate()
				set, err := ns.SampleAt(p)
				if err != nil {
					t.Fatal(err)
				}
				if set.N != len(sorted) {
					t.Fatalf("sample over N = %d, want %d", set.N, len(sorted))
				}
				if err := set.Validate(); err != nil {
					t.Fatal(err)
				}
				for _, s := range set.Samples {
					if want := sorted[s.Rank-1]; math.Float64bits(s.Value) != math.Float64bits(want) {
						t.Fatalf("rank %d holds %v, want %v", s.Rank, s.Value, want)
					}
				}
				if last != nil && p >= rate {
					// Both samples ascend by rank, so one pass finds any
					// rank the top-up dropped.
					j := 0
					for _, s := range last.Samples {
						for j < len(set.Samples) && set.Samples[j].Rank < s.Rank {
							j++
						}
						if j == len(set.Samples) || set.Samples[j].Rank != s.Rank {
							t.Fatalf("top-up %v→%v dropped rank %d", rate, p, s.Rank)
						}
					}
				}
				last = set
			case 4:
				l, u := value(), value()
				got, err := ns.CountRange(l, u)
				if l > u {
					if err == nil {
						t.Fatalf("CountRange(%v, %v) accepted l > u", l, u)
					}
					break
				}
				if want := (&oracle{sorted: sorted}).countRange(l, u); err != nil || got != want {
					t.Fatalf("CountRange(%v, %v) = %d, %v; want %d", l, u, got, err, want)
				}
			}
			if ns.Len() != len(sorted) {
				t.Fatalf("Len = %d after %d readings", ns.Len(), len(sorted))
			}
		}
	})
}
