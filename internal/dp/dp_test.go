package dp

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"privrange/internal/stats"
)

func TestNewLaplaceValidation(t *testing.T) {
	t.Parallel()
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewLaplace(bad); err == nil {
			t.Errorf("NewLaplace(%v) should fail", bad)
		}
	}
	if _, err := NewLaplace(2); err != nil {
		t.Errorf("NewLaplace(2): %v", err)
	}
}

func TestLaplaceCDF(t *testing.T) {
	t.Parallel()
	l := Laplace{Scale: 2}
	cases := []struct {
		x    float64
		want float64
	}{
		{x: 0, want: 0.5},
		{x: math.Inf(1), want: 1},
		{x: math.Inf(-1), want: 0},
		{x: 2, want: 1 - 0.5*math.Exp(-1)},
		{x: -2, want: 0.5 * math.Exp(-1)},
	}
	for _, tc := range cases {
		if got := l.CDF(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestLaplaceAbsCDFQuantileInverse(t *testing.T) {
	t.Parallel()
	f := func(scaleRaw, qRaw float64) bool {
		scale := 0.1 + math.Abs(math.Mod(scaleRaw, 100))
		q := math.Mod(math.Abs(qRaw), 0.999)
		l := Laplace{Scale: scale}
		tq, err := l.AbsQuantile(q)
		if err != nil {
			return false
		}
		back := l.AbsCDF(tq)
		return math.Abs(back-q) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLaplaceAbsQuantileValidation(t *testing.T) {
	t.Parallel()
	l := Laplace{Scale: 1}
	if _, err := l.AbsQuantile(1); err == nil {
		t.Error("q=1 should fail (infinite quantile)")
	}
	if _, err := l.AbsQuantile(-0.1); err == nil {
		t.Error("q<0 should fail")
	}
}

func TestMechanismValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewMechanism(0, 1); err == nil {
		t.Error("epsilon=0 should fail")
	}
	if _, err := NewMechanism(1, 0); err == nil {
		t.Error("sensitivity=0 should fail")
	}
	if _, err := NewMechanism(math.NaN(), 1); err == nil {
		t.Error("NaN epsilon should fail")
	}
	m, err := NewMechanism(0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Noise().Scale; got != 4 {
		t.Errorf("noise scale = %v, want 4", got)
	}
}

func TestMechanismNoiseMagnitude(t *testing.T) {
	t.Parallel()
	m, err := NewMechanism(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	var w stats.Running
	for i := 0; i < 100000; i++ {
		w.Add(m.Perturb(100, rng))
	}
	if math.Abs(w.Mean()-100) > 0.05 {
		t.Errorf("perturbed mean = %v, want ~100", w.Mean())
	}
	if math.Abs(w.Variance()-m.Noise().Variance())/m.Noise().Variance() > 0.05 {
		t.Errorf("perturbed variance = %v, want ~%v", w.Variance(), m.Noise().Variance())
	}
}

// TestMechanismIndistinguishability empirically checks the ε-DP guarantee
// on two neighbouring counts: the densities of the two output
// distributions must stay within a factor e^ε across a grid of buckets.
func TestMechanismIndistinguishability(t *testing.T) {
	t.Parallel()
	const (
		eps    = 0.5
		trials = 400000
		bucket = 1.0
	)
	m, err := NewMechanism(eps, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	histA := map[int]int{}
	histB := map[int]int{}
	for i := 0; i < trials; i++ {
		histA[int(math.Floor(m.Perturb(100, rng)/bucket))]++
		histB[int(math.Floor(m.Perturb(101, rng)/bucket))]++
	}
	bound := math.Exp(eps)
	for b, ca := range histA {
		cb := histB[b]
		// Only compare well-populated buckets; tails are sampling noise.
		if ca < 2000 || cb < 2000 {
			continue
		}
		ratio := float64(ca) / float64(cb)
		// Allow 15% statistical slack over the analytic bound.
		if ratio > bound*1.15 || 1/ratio > bound*1.15 {
			t.Errorf("bucket %d: ratio %v exceeds e^eps = %v", b, ratio, bound)
		}
	}
}

func TestAmplifyBySampling(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		eps  float64
		p    float64
		want float64
	}{
		{name: "p=1 is identity", eps: 2, p: 1, want: 2},
		{name: "p=0 is perfect privacy", eps: 5, p: 0, want: 0},
		{name: "paper formula", eps: 1, p: 0.5, want: math.Log(1 - 0.5 + 0.5*math.E)},
		{name: "eps=0 stays 0", eps: 0, p: 0.3, want: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := AmplifyBySampling(tc.eps, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("AmplifyBySampling(%v, %v) = %v, want %v", tc.eps, tc.p, got, tc.want)
			}
		})
	}
	if _, err := AmplifyBySampling(1, -0.1); err == nil {
		t.Error("p<0 should fail")
	}
	if _, err := AmplifyBySampling(-1, 0.5); err == nil {
		t.Error("negative eps should fail")
	}
}

func TestAmplificationAlwaysHelps(t *testing.T) {
	t.Parallel()
	f := func(epsRaw, pRaw float64) bool {
		eps := math.Abs(math.Mod(epsRaw, 10))
		p := math.Mod(math.Abs(pRaw), 1)
		got, err := AmplifyBySampling(eps, p)
		if err != nil {
			return false
		}
		// ε′ ≤ ε always, with equality only at p=1 or ε=0;
		// and ε′ ≤ p·(e^ε −1) (the standard upper bound).
		return got <= eps+1e-12 && got <= p*math.Expm1(eps)+1e-12 && got >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRequiredEpsilonInvertsAmplification(t *testing.T) {
	t.Parallel()
	f := func(epsPrimeRaw, pRaw float64) bool {
		epsPrime := math.Abs(math.Mod(epsPrimeRaw, 5))
		p := 0.01 + math.Mod(math.Abs(pRaw), 0.99)
		eps, err := RequiredEpsilonForAmplified(epsPrime, p)
		if err != nil {
			return false
		}
		back, err := AmplifyBySampling(eps, p)
		if err != nil {
			return false
		}
		return math.Abs(back-epsPrime) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if _, err := RequiredEpsilonForAmplified(1, 0); err == nil {
		t.Error("p=0 should fail")
	}
}

func TestAccountant(t *testing.T) {
	t.Parallel()
	a, err := NewAccountant(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.4); err == nil {
		t.Error("overspend should fail")
	}
	if got := a.Spent(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Spent = %v, want 0.8", got)
	}
	if rem, ok := a.Remaining(); !ok || math.Abs(rem-0.2) > 1e-12 {
		t.Errorf("Remaining = %v, %v; want 0.2, true", rem, ok)
	}
	if a.Queries() != 2 {
		t.Errorf("Queries = %d, want 2", a.Queries())
	}
	if err := a.Spend(-1); err == nil {
		t.Error("negative spend should fail")
	}
}

func TestAccountantUncapped(t *testing.T) {
	t.Parallel()
	var a Accountant
	for i := 0; i < 100; i++ {
		if err := a.Spend(10); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := a.Remaining(); ok {
		t.Error("uncapped accountant should report no remaining bound")
	}
	if _, err := NewAccountant(-1); err == nil {
		t.Error("negative cap should fail")
	}
}

// TestAccountantRefusesNonFinite: NaN passes a plain `< 0` test and an
// uncapped accountant has no cap comparison to catch +Inf, so both must
// be refused explicitly — a non-finite Σε′ cannot be journaled.
func TestAccountantRefusesNonFinite(t *testing.T) {
	t.Parallel()
	var a Accountant
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.Spend(eps); err == nil {
			t.Errorf("Spend(%v) accepted", eps)
		}
	}
	if a.Spent() != 0 || a.Queries() != 0 {
		t.Errorf("refused spends recorded: spent %v over %d queries", a.Spent(), a.Queries())
	}
}

func TestAccountantConcurrent(t *testing.T) {
	t.Parallel()
	a, err := NewAccountant(1000)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = a.Spend(1)
			}
		}()
	}
	wg.Wait()
	if got := a.Spent(); got != 800 {
		t.Errorf("Spent = %v, want 800", got)
	}
}

func TestAccountantSnapshotRestore(t *testing.T) {
	t.Parallel()
	a, err := NewAccountant(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.3); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(0.5); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if snap.Queries != 2 || snap.Spent != a.Spent() {
		t.Fatalf("snapshot %+v does not match accountant (spent %v, 2 queries)", snap, a.Spent())
	}
	// Restore into a pristine twin: bit-identical running sum, and the
	// cap keeps binding from where the snapshot left off.
	b, err := NewAccountant(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b.Spent() != snap.Spent || b.Queries() != snap.Queries {
		t.Fatalf("restored (%v, %d), want (%v, %d)", b.Spent(), b.Queries(), snap.Spent, snap.Queries)
	}
	if err := b.Spend(1.5); err == nil {
		t.Error("restored spend must count against the cap")
	}
	if err := b.Spend(0.5); err != nil {
		t.Errorf("in-budget spend after restore failed: %v", err)
	}
}

func TestAccountantRestoreValidation(t *testing.T) {
	t.Parallel()
	fresh := func() *Accountant {
		a, err := NewAccountant(1.0)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	bad := []State{
		{Spent: math.NaN(), Queries: 1},
		{Spent: math.Inf(1), Queries: 1},
		{Spent: -0.1, Queries: 1},
		{Spent: 0.1, Queries: -1},
		{Spent: 0.1, Queries: 0}, // spend with no recorded queries
		{Spent: 1.5, Queries: 3}, // over the cap
	}
	for _, s := range bad {
		if err := fresh().Restore(s); err == nil {
			t.Errorf("Restore accepted corrupt state %+v", s)
		}
	}
	// Restoring over live bookkeeping would erase released epsilon.
	a := fresh()
	if err := a.Spend(0.2); err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(State{Spent: 0.1, Queries: 1}); err == nil {
		t.Error("Restore into a non-pristine accountant must fail")
	}
	// An uncapped accountant accepts any finite state.
	var u Accountant
	if err := u.Restore(State{Spent: 123.5, Queries: 9}); err != nil {
		t.Errorf("uncapped restore failed: %v", err)
	}
}
