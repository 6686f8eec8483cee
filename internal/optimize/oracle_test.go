package optimize

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

// referencePlan is the per-point plan as the exhaustive scan computes it:
// δ′ from the variance bound, the closed form, amplification and the
// Laplace tail, all evaluated afresh for every α′.
func referencePlan(p *Problem, alphaPrime float64) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	alpha, delta := p.Accuracy.Alpha, p.Accuracy.Delta
	if alphaPrime <= 0 || alphaPrime >= alpha {
		return Plan{}, fmt.Errorf("%w: alpha' %v not in (0, %v)", ErrInfeasible, alphaPrime, alpha)
	}
	t := alphaPrime * float64(p.N)
	deltaPrime := 1 - estimator.GlobalVariance(p.P, p.K)/(t*t)
	if deltaPrime <= delta {
		return Plan{}, fmt.Errorf("%w: delta' %v does not exceed required delta %v at alpha'=%v",
			ErrInfeasible, deltaPrime, delta, alphaPrime)
	}
	sens := p.sensitivity()
	slack := (alpha - alphaPrime) * float64(p.N)
	eps := sens / slack * math.Log(deltaPrime/(deltaPrime-delta))
	epsPrime, err := dp.AmplifyBySampling(eps, p.P)
	if err != nil {
		return Plan{}, err
	}
	noise := dp.Laplace{Scale: sens / eps}
	return Plan{
		AlphaPrime:   alphaPrime,
		DeltaPrime:   deltaPrime,
		Epsilon:      eps,
		EpsilonPrime: epsPrime,
		Sensitivity:  sens,
		NoiseScale:   sens / eps,
		Tau:          noise.AbsCDF(slack),
	}, nil
}

// referenceSolve is the exhaustive grid scan: a full plan at every grid
// point, kept when its computed ε′ is strictly below the best so far.
func referenceSolve(p *Problem) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	lo := p.MinAlphaPrime()
	hi := p.Accuracy.Alpha
	if lo >= hi {
		need, rerr := estimator.RequiredProbability(p.Accuracy, p.K, p.N)
		if rerr != nil {
			return Plan{}, rerr
		}
		return Plan{}, fmt.Errorf("%w: sampling rate %.5f too low, need at least ~%.5f", ErrInfeasible, p.P, need)
	}
	grid := p.grid()
	var (
		best  Plan
		found bool
	)
	for i := 1; i < grid; i++ {
		alphaPrime := lo + (hi-lo)*float64(i)/float64(grid)
		plan, err := referencePlan(p, alphaPrime)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			return Plan{}, err
		}
		if !found || plan.EpsilonPrime < best.EpsilonPrime {
			best = plan
			found = true
		}
	}
	if !found {
		return Plan{}, fmt.Errorf("%w: empty feasible grid in (%v, %v)", ErrInfeasible, lo, hi)
	}
	return best, nil
}

// referenceRefine is the golden-section polish over full plans, applied
// to referenceSolve's winner.
func referenceRefine(p *Problem, best Plan) Plan {
	lo := p.MinAlphaPrime()
	hi := p.Accuracy.Alpha
	grid := float64(p.grid())
	step := (hi - lo) / grid
	a := math.Max(lo+1e-12, best.AlphaPrime-step)
	b := math.Min(hi-1e-12, best.AlphaPrime+step)
	if a >= b {
		return best
	}
	value := func(alphaPrime float64) (Plan, bool) {
		plan, err := referencePlan(p, alphaPrime)
		return plan, err == nil
	}
	const (
		invPhi = 0.6180339887498949
		iters  = 60
	)
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	pc, okc := value(c)
	pd, okd := value(d)
	for i := 0; i < iters && b-a > 1e-14; i++ {
		fc, fd := math.Inf(1), math.Inf(1)
		if okc {
			fc = pc.EpsilonPrime
		}
		if okd {
			fd = pd.EpsilonPrime
		}
		if fc < fd {
			b, d, pd, okd = d, c, pc, okc
			c = b - (b-a)*invPhi
			pc, okc = value(c)
		} else {
			a, c, pc, okc = c, d, pd, okd
			d = a + (b-a)*invPhi
			pd, okd = value(d)
		}
	}
	for _, cand := range []struct {
		plan Plan
		ok   bool
	}{{pc, okc}, {pd, okd}} {
		if cand.ok && cand.plan.EpsilonPrime < best.EpsilonPrime {
			best = cand.plan
		}
	}
	return best
}

// samePlan reports whether two plans agree in every field bit for bit.
func samePlan(a, b Plan) bool {
	x := [...]float64{a.AlphaPrime, a.DeltaPrime, a.Epsilon, a.EpsilonPrime, a.Sensitivity, a.NoiseScale, a.Tau}
	y := [...]float64{b.AlphaPrime, b.DeltaPrime, b.Epsilon, b.EpsilonPrime, b.Sensitivity, b.NoiseScale, b.Tau}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkAgainstReference requires Solve and SolveRefined to return the
// exhaustive scan's plans bit for bit, and the same errors. It returns
// whether the problem was feasible.
func checkAgainstReference(t *testing.T, prob Problem) bool {
	t.Helper()
	want, wantErr := referenceSolve(&prob)
	got, err := prob.Solve()
	if !sameErr(err, wantErr) || !samePlan(got, want) {
		t.Fatalf("Solve(%+v) = %+v, %v; exhaustive scan gives %+v, %v", prob, got, err, want, wantErr)
	}
	if wantErr == nil {
		want = referenceRefine(&prob, want)
	}
	got, err = prob.SolveRefined()
	if !sameErr(err, wantErr) || !samePlan(got, want) {
		t.Fatalf("SolveRefined(%+v) = %+v, %v; exhaustive polish gives %+v, %v", prob, got, err, want, wantErr)
	}
	return wantErr == nil
}

// doubledRate is twice the Theorem 3.3 rate for (α, δ) on k nodes and n
// readings: the rate auto-collection settles at.
func doubledRate(tb testing.TB, acc estimator.Accuracy, k, n int) float64 {
	tb.Helper()
	need, err := estimator.RequiredProbability(acc, k, n)
	if err != nil {
		tb.Fatal(err)
	}
	return 2 * need
}

// buyOpenTiers is the benchmark's four-tier price list.
var buyOpenTiers = []estimator.Accuracy{{Alpha: 0.01, Delta: 0.9}, {Alpha: 0.02, Delta: 0.8}, {Alpha: 0.05, Delta: 0.9}, {Alpha: 0.1, Delta: 0.7}}

// TestSolveMatchesExhaustiveScan pins the ε-ranked scan to the
// exhaustive ε′ scan on the shapes the engine solves: buy-open's four
// tiers on 16 nodes at several rates, ingest-batch's tier on 64 nodes as
// the dataset grows round by round, and the overflow corner where ε′
// saturates at +Inf past the running best.
func TestSolveMatchesExhaustiveScan(t *testing.T) {
	t.Parallel()
	const n = 17568
	for _, rate := range []float64{doubledRate(t, buyOpenTiers[0], 16, n), 0.05, 0.1, 0.5, 1} {
		for _, acc := range buyOpenTiers {
			checkAgainstReference(t, Problem{Accuracy: acc, P: rate, K: 16, N: n})
		}
	}
	batch := estimator.Accuracy{Alpha: 0.1, Delta: 0.8}
	rate := doubledRate(t, batch, 64, n)
	for r := 0; r <= 2800; r++ {
		checkAgainstReference(t, Problem{Accuracy: batch, P: rate, K: 64, N: n + 288*r})
	}
	overflow := Problem{
		Accuracy:    estimator.Accuracy{Alpha: 0.0005259817837725856, Delta: 0.9379267138534164},
		P:           0.3462072403206432,
		K:           165,
		N:           324083,
		Sensitivity: 11.116847577986738,
	}
	if !checkAgainstReference(t, overflow) {
		t.Fatal("the overflow corner should be feasible")
	}
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// TestSolveMatchesExhaustiveScanSweep extends the oracle to a seeded
// sweep of problems far from the engine's shapes: α down to 10⁻⁵, δ up
// to 1 − e⁻²⁰, grids of 2 to 5,000 points, custom sensitivities and full
// collection (p = 1).
func TestSolveMatchesExhaustiveScanSweep(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(32))
	logUniform := func(lo, hi float64) float64 { return logUniform(rng, lo, hi) }
	const problems = 3000
	feasible := 0
	for i := 0; i < problems; i++ {
		acc := estimator.Accuracy{Alpha: logUniform(1e-5, 0.9), Delta: 1 - math.Exp(-20*rng.Float64())}
		if acc.Delta <= 0 {
			acc.Delta = 0.5
		}
		k := 1 + rng.Intn(300)
		n := int(logUniform(10, 1e6))
		prob := Problem{Accuracy: acc, K: k, N: n, GridPoints: int(logUniform(2, 5000))}
		if rng.Intn(3) == 0 {
			prob.Sensitivity = logUniform(1e-3, 1e3)
		}
		if rng.Intn(5) == 0 {
			prob.P = 1
		} else {
			need, err := estimator.RequiredProbability(acc, k, n)
			if err != nil {
				t.Fatal(err)
			}
			prob.P = math.Min(1, need*logUniform(0.8, 20))
		}
		if checkAgainstReference(t, prob) {
			feasible++
		}
	}
	if feasible < problems/2 {
		t.Fatalf("only %d of %d sweep problems feasible: the sweep no longer exercises the scan", feasible, problems)
	}
}

// TestRankAgreesWithAmplifiedOrder checks, in floating point, the
// lemma the scan rests on: wherever rank decides between a point's ε
// and the best ε so far, the computed ε′ values compare the same way
// under the exhaustive scan's strict <. The grid rarely puts two ε
// values within a few ulps of each other, so the pairs here do: every
// ε within 16 ulps of the best, the band's edges, ε′ saturating at +Inf
// past ε ≈ 709.78, and p·ε down among the subnormals, where ε′ loses
// its relative accuracy.
func TestRankAgreesWithAmplifiedOrder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 20000; i++ {
		o := objective{p: 1}
		if rng.Intn(4) != 0 {
			o.p = logUniform(rng, 1e-6, 1)
		}
		var best float64
		switch rng.Intn(4) {
		case 0:
			best = logUniform(rng, 1e-300, 1e-6)
		case 1:
			best = math.Float64frombits(uint64(1 + rng.Intn(1<<12))) // a few subnormal ulps
		default:
			best = logUniform(rng, 1e-6, 800)
		}
		cands := []float64{
			(1 - bandTol) * best * (1 - 0x1p-40), (1 - bandTol) * best * (1 + 0x1p-40),
			(1 + bandTol) * best * (1 - 0x1p-40), (1 + bandTol) * best * (1 + 0x1p-40),
			best * logUniform(rng, 0.5, 2),
		}
		down, up := best, best
		for j := 0; j < 16; j++ {
			down, up = math.Nextafter(down, 0), math.Nextafter(up, math.Inf(1))
			cands = append(cands, down, up)
		}
		bestPrime := o.amplify(best)
		for _, eps := range cands {
			below := o.amplify(eps) < bestPrime
			if r := o.rank(eps, best); (r < 0 && !below) || (r > 0 && below) {
				t.Fatalf("p=%v: rank(%v, %v) = %d, but computed ε′ %v against %v",
					o.p, eps, best, r, o.amplify(eps), bestPrime)
			}
		}
	}
}
