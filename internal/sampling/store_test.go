package sampling

import (
	"math"
	"testing"
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
// fails; every value equals Select(rank); a top-up keeps every rank of
// the draw it extends.
func TestNodeStoreRankByRank(t *testing.T) {
	t.Parallel()
	const size, stores = 50, 4000
	for _, rates := range [][2]float64{{0.2, 0.5}, {0.03, 0.9}} {
		p, p1 := rates[0], rates[1]
		drawn := make([]int, size+1)
		topped := make([]int, size+1)
		for k := 0; k < stores; k++ {
			ns := NewNodeStore(k, int64(1000+k))
			for i := 0; i < size; i++ {
				ns.Add(float64((i * 7) % 9)) // duplicates, out of order
			}
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
					if want, _ := ns.tree.Select(s.Rank); s.Value != want {
						t.Fatalf("store %d: rank %d holds %v, Select gives %v", k, s.Rank, s.Value, want)
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
