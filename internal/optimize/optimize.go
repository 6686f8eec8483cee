// Package optimize solves the paper's optimization problem (3): given a
// customer's (α, δ) accuracy requirement and samples already collected at
// Bernoulli rate p, find the noise-adding plan with the *strongest*
// differential privacy — the smallest effective budget
// ε′ = ln(1 + p(e^ε − 1)) — such that the sampled-then-perturbed answer
// still satisfies (α, δ)-range counting.
//
// The broker splits the error budget between the two phases: the sampling
// phase delivers an (α′, δ′)-accurate estimate (α′ ≤ α, δ′ ≥ δ, with δ′
// determined by the existing sampling rate via Chebyshev), and the Laplace
// phase may consume the remaining slack (α−α′)n as long as
// Pr[|Lap| ≤ (α−α′)n] ≥ δ/δ′. For a fixed α′ the minimal base budget has
// the closed form
//
//	ε(α′) = Δγ̂ / ((α−α′)·n) · ln(δ′/(δ′−δ))
//
// with Δγ̂ = 1/p, the expected sensitivity of the RankCounting estimate.
// A grid search over α′ then minimizes ε′. It ranks grid points on ε,
// which ε′ follows, and evaluates ε′ only where rounding could make the
// two rankings disagree (THEORY §2).
package optimize

import (
	"errors"
	"fmt"
	"math"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

// ErrInfeasible reports that no (α′, δ′, ε) triple can meet the requested
// accuracy with the samples at hand; the broker must collect more samples
// first.
var ErrInfeasible = errors.New("optimize: accuracy requirement infeasible at current sampling rate")

// Problem describes one instance of optimization problem (3).
type Problem struct {
	// Accuracy is the customer-requested (α, δ).
	Accuracy estimator.Accuracy
	// P is the Bernoulli sampling rate of the samples the broker holds.
	P float64
	// K is the number of IoT nodes.
	K int
	// N is the global dataset size |D|.
	N int
	// Sensitivity overrides the estimator sensitivity Δγ̂ used for noise
	// calibration. Zero selects the paper's default, the expected
	// sensitivity 1/p.
	Sensitivity float64
	// GridPoints is the resolution of the α′ search grid. Zero selects
	// 2000 points, fine enough that the discretization error in ε′ is
	// far below experimental noise.
	GridPoints int
}

// Plan is a feasible solution to problem (3): the internal accuracy split
// plus the calibrated noise.
type Plan struct {
	// AlphaPrime and DeltaPrime are the sampling phase's accuracy.
	AlphaPrime, DeltaPrime float64
	// Epsilon is the base Laplace budget ε.
	Epsilon float64
	// EpsilonPrime is the effective budget after privacy amplification by
	// sampling, ε′ = ln(1 + p(e^ε − 1)) — the quantity minimized.
	EpsilonPrime float64
	// Sensitivity is the Δγ̂ used to calibrate noise.
	Sensitivity float64
	// NoiseScale is the Laplace scale Δγ̂/ε actually added to the
	// estimate.
	NoiseScale float64
	// Tau is Pr[|Lap| ≤ (α−α′)n], the noise phase's share of the
	// confidence budget; the composite guarantee is DeltaPrime·Tau ≥ δ.
	Tau float64
}

func (p *Problem) validate() error {
	if err := p.Accuracy.Validate(); err != nil {
		return err
	}
	if !(p.P > 0 && p.P <= 1) {
		return fmt.Errorf("optimize: sampling probability %v outside (0, 1]", p.P)
	}
	if p.K < 1 {
		return fmt.Errorf("optimize: node count %d < 1", p.K)
	}
	if p.N < 1 {
		return fmt.Errorf("optimize: dataset size %d < 1", p.N)
	}
	if p.Sensitivity < 0 {
		return fmt.Errorf("optimize: negative sensitivity %v", p.Sensitivity)
	}
	if p.GridPoints < 0 {
		return fmt.Errorf("optimize: negative grid size %d", p.GridPoints)
	}
	return nil
}

func (p *Problem) sensitivity() float64 {
	if p.Sensitivity > 0 {
		return p.Sensitivity
	}
	return 1 / p.P
}

func (p *Problem) grid() int {
	if p.GridPoints > 0 {
		return p.GridPoints
	}
	return 2000
}

// MinAlphaPrime returns the smallest α′ at which the existing samples
// still deliver δ′ > δ: from δ′(α′) = 1 − V/(α′n)² solved at δ′ = δ, with
// V = estimator.GlobalVariance(p, k),
//
//	α′_min = √(V/(1−δ)) / n.
//
// The feasible interval of problem (3) is (α′_min, α). At p = 1 the
// bound V is 0, so α′_min is 0.
func (p *Problem) MinAlphaPrime() float64 {
	return math.Sqrt(estimator.GlobalVariance(p.P, p.K)/(1-p.Accuracy.Delta)) / float64(p.N)
}

// objective is ε(α′) for one problem, with everything that does not
// depend on α′ computed once.
type objective struct {
	alpha, delta float64
	v            float64 // estimator.GlobalVariance(p, k)
	sens         float64 // Δγ̂
	n, p         float64
}

func (p *Problem) objective() objective {
	return objective{
		alpha: p.Accuracy.Alpha,
		delta: p.Accuracy.Delta,
		v:     estimator.GlobalVariance(p.P, p.K),
		sens:  p.sensitivity(),
		n:     float64(p.N),
		p:     p.P,
	}
}

// eps returns the minimal base budget ε at α′ and the sampling phase's
// confidence δ′ = 1 − V/(α′n)². ok is false when α′ ∉ (0, α) or δ′ ≤ δ
// leaves no plan. This is the one place the closed form is written, so
// the scan, the polish and the returned plan round identically.
func (o *objective) eps(alphaPrime float64) (eps, deltaPrime float64, ok bool) {
	if !(alphaPrime > 0 && alphaPrime < o.alpha) {
		return 0, 0, false
	}
	t := alphaPrime * o.n
	deltaPrime = 1 - o.v/(t*t)
	if deltaPrime <= o.delta {
		return 0, deltaPrime, false
	}
	slack := (o.alpha - alphaPrime) * o.n
	return o.sens / slack * math.Log(deltaPrime/(deltaPrime-o.delta)), deltaPrime, true
}

// amplify is dp.AmplifyBySampling at the problem's rate. Its error
// cannot occur here: p ∈ (0, 1] is validated, and eps never returns a
// negative ε, since δ′ > δ > 0 puts the log's argument at 1 or above.
func (o *objective) amplify(eps float64) float64 {
	epsPrime, _ := dp.AmplifyBySampling(eps, o.p)
	return epsPrime
}

// epsPrime is ε′ at α′, or +Inf where EpsilonForAlphaPrime refuses α′.
func (o *objective) epsPrime(alphaPrime float64) float64 {
	eps, _, ok := o.eps(alphaPrime)
	if !ok {
		return math.Inf(1)
	}
	return o.amplify(eps)
}

// bandTol is the relative gap in ε beyond which two grid points rank the
// same on ε as on computed ε′. The computed ε′ lies within ~3 ulp of
// f(ε) = ln(1 + p(e^ε − 1)), and a relative gap in ε carries over to f
// at least as large (THEORY §2), so any gap far above 3 ulp decides.
const bandTol = 1e-9

// rank places a grid point's ε against the best ε so far: −1 when the
// point's computed ε′ is certainly below the best's, +1 when it is
// certainly not, and 0 when only the computed ε′ values can tell. The
// ε order decides only outside the band [(1−bandTol)·best,
// (1+bandTol)·best], and only while the best's ε′ keeps its relative
// accuracy: e^ε must not overflow (ε′ saturates at +Inf just above
// ε = 709.78), and p·ε must stay clear of the subnormals, where
// rounding is absolute rather than relative. A NaN on either side falls
// through to 0.
func (o *objective) rank(eps, best float64) int {
	if best >= 709 || o.p*best < 0x1p-1000 {
		return 0
	}
	switch {
	case eps < (1-bandTol)*best:
		return -1
	case eps > (1+bandTol)*best:
		return 1
	}
	return 0
}

// EpsilonForAlphaPrime computes the minimal base budget for a fixed α′:
// the closed form the paper derives from the Laplace tail. It returns
// ErrInfeasible when α′ leaves no room for either phase.
func (p *Problem) EpsilonForAlphaPrime(alphaPrime float64) (Plan, error) {
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	alpha, delta := p.Accuracy.Alpha, p.Accuracy.Delta
	if !(alphaPrime > 0 && alphaPrime < alpha) {
		return Plan{}, fmt.Errorf("%w: alpha' %v not in (0, %v)", ErrInfeasible, alphaPrime, alpha)
	}
	o := p.objective()
	eps, deltaPrime, ok := o.eps(alphaPrime)
	if !ok {
		return Plan{}, fmt.Errorf("%w: delta' %v does not exceed required delta %v at alpha'=%v",
			ErrInfeasible, deltaPrime, delta, alphaPrime)
	}
	epsPrime, err := dp.AmplifyBySampling(eps, p.P)
	if err != nil {
		return Plan{}, err
	}
	noise := dp.Laplace{Scale: o.sens / eps}
	return Plan{
		AlphaPrime:   alphaPrime,
		DeltaPrime:   deltaPrime,
		Epsilon:      eps,
		EpsilonPrime: epsPrime,
		Sensitivity:  o.sens,
		NoiseScale:   o.sens / eps,
		Tau:          noise.AbsCDF((alpha - alphaPrime) * o.n),
	}, nil
}

// Solve runs the grid search over α′ and returns the plan with the
// smallest effective budget ε′, the first grid point winning a tie. It
// returns ErrInfeasible (wrapped with the minimum workable sampling
// rate) when even α′ → α cannot reach δ.
func (p *Problem) Solve() (Plan, error) {
	alphaPrime, _, err := p.scan()
	if err != nil {
		return Plan{}, err
	}
	return p.EpsilonForAlphaPrime(alphaPrime)
}

// scan runs Solve's grid and returns the winning α′ with its ε′: the
// point a strict < over every grid point's computed ε′ would keep. It
// ranks points on ε and amplifies only where rank cannot decide.
func (p *Problem) scan() (alphaPrime, epsPrime float64, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	lo := p.MinAlphaPrime()
	hi := p.Accuracy.Alpha
	if lo >= hi {
		// Even a pure-sampling answer misses δ: the paper's broker would
		// collect more samples. Report the rate that would open the
		// search space.
		need, rerr := estimator.RequiredProbability(p.Accuracy, p.K, p.N)
		if rerr != nil {
			return 0, 0, rerr
		}
		return 0, 0, fmt.Errorf("%w: sampling rate %.5f too low, need at least ~%.5f", ErrInfeasible, p.P, need)
	}
	o := p.objective()
	grid := p.grid()
	var (
		found   bool
		known   bool // epsPrime holds the ε′ of the best point so far
		bestEps float64
	)
	for i := 1; i < grid; i++ {
		ap := lo + (hi-lo)*float64(i)/float64(grid)
		eps, _, ok := o.eps(ap)
		if !ok {
			continue
		}
		if found {
			switch o.rank(eps, bestEps) {
			case 1:
				continue
			case 0:
				if !known {
					epsPrime, known = o.amplify(bestEps), true
				}
				cand := o.amplify(eps)
				if !(cand < epsPrime) {
					continue
				}
				alphaPrime, bestEps, epsPrime = ap, eps, cand
				continue
			}
		}
		found, known, alphaPrime, bestEps = true, false, ap, eps
	}
	if !found {
		return 0, 0, fmt.Errorf("%w: empty feasible grid in (%v, %v)", ErrInfeasible, lo, hi)
	}
	if !known {
		epsPrime = o.amplify(bestEps)
	}
	return alphaPrime, epsPrime, nil
}

// Verify checks that the plan satisfies every constraint of problem (3)
// for this problem instance; experiments and property tests call it to
// guarantee the solver never emits an invalid plan. tol absorbs grid and
// floating-point slack. It fails closed: every check is written so that
// a NaN fails it.
func (p *Problem) Verify(plan Plan, tol float64) error {
	if err := p.validate(); err != nil {
		return err
	}
	alpha, delta := p.Accuracy.Alpha, p.Accuracy.Delta
	if !(plan.AlphaPrime > 0 && plan.AlphaPrime <= alpha+tol) {
		return fmt.Errorf("optimize: plan alpha' %v violates 0 < alpha' <= alpha=%v", plan.AlphaPrime, alpha)
	}
	if !(plan.DeltaPrime >= delta-tol) {
		return fmt.Errorf("optimize: plan delta' %v below delta=%v", plan.DeltaPrime, delta)
	}
	// Sampling constraint: Chebyshev on the variance bound supports δ′
	// at α′, δ′ ≤ 1 − V(p)/(α′n)².
	t := plan.AlphaPrime * float64(p.N)
	if maxDelta := 1 - estimator.GlobalVariance(p.P, p.K)/(t*t); !(plan.DeltaPrime <= maxDelta+tol) {
		return fmt.Errorf("optimize: plan delta' %v above %v, the most the sampling rate %v supports at alpha' %v",
			plan.DeltaPrime, maxDelta, p.P, plan.AlphaPrime)
	}
	if !(plan.Epsilon > 0) {
		return fmt.Errorf("optimize: non-positive epsilon %v", plan.Epsilon)
	}
	// Noise constraint: Pr[|Lap| ≤ (α−α′)n] ≥ δ/δ′.
	noise := dp.Laplace{Scale: plan.NoiseScale}
	tau := noise.AbsCDF((alpha - plan.AlphaPrime) * float64(p.N))
	if !(tau >= delta/plan.DeltaPrime-tol) {
		return fmt.Errorf("optimize: noise tail %v below delta/delta' = %v", tau, delta/plan.DeltaPrime)
	}
	// Amplification bookkeeping: ε′ = ln(1 + p(e^ε − 1)).
	wantPrime, err := dp.AmplifyBySampling(plan.Epsilon, p.P)
	if err != nil {
		return err
	}
	if !(math.Abs(wantPrime-plan.EpsilonPrime) <= tol) {
		return fmt.Errorf("optimize: epsilon' %v inconsistent with amplification %v", plan.EpsilonPrime, wantPrime)
	}
	return nil
}
