package optimize

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"privrange/internal/dp"
	"privrange/internal/estimator"
)

func validProblem() Problem {
	return Problem{
		Accuracy: estimator.Accuracy{Alpha: 0.1, Delta: 0.6},
		P:        0.2,
		K:        10,
		N:        17568,
	}
}

func TestSolveProducesFeasiblePlan(t *testing.T) {
	t.Parallel()
	p := validProblem()
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(plan, 1e-9); err != nil {
		t.Errorf("solver emitted invalid plan: %v", err)
	}
	if plan.AlphaPrime >= p.Accuracy.Alpha {
		t.Errorf("alpha' %v should be strictly below alpha %v", plan.AlphaPrime, p.Accuracy.Alpha)
	}
	if plan.DeltaPrime <= p.Accuracy.Delta {
		t.Errorf("delta' %v should exceed delta %v", plan.DeltaPrime, p.Accuracy.Delta)
	}
	if plan.EpsilonPrime <= 0 || plan.EpsilonPrime > plan.Epsilon {
		t.Errorf("amplified budget %v should be in (0, epsilon=%v]", plan.EpsilonPrime, plan.Epsilon)
	}
	if plan.NoiseScale != plan.Sensitivity/plan.Epsilon {
		t.Errorf("noise scale %v inconsistent", plan.NoiseScale)
	}
}

func TestSolveIsGridOptimal(t *testing.T) {
	t.Parallel()
	p := validProblem()
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// No grid point can beat the returned plan.
	lo := p.MinAlphaPrime()
	hi := p.Accuracy.Alpha
	grid := p.grid()
	for i := 1; i < grid; i++ {
		alphaPrime := lo + (hi-lo)*float64(i)/float64(grid)
		candidate, err := p.EpsilonForAlphaPrime(alphaPrime)
		if err != nil {
			continue
		}
		if candidate.EpsilonPrime < plan.EpsilonPrime-1e-15 {
			t.Fatalf("grid point alpha'=%v has eps'=%v better than solver's %v",
				alphaPrime, candidate.EpsilonPrime, plan.EpsilonPrime)
		}
	}
}

func TestSolveInfeasibleAtLowSampling(t *testing.T) {
	t.Parallel()
	p := validProblem()
	p.P = 0.001 // far below the Theorem 3.3 requirement for alpha=0.1
	_, err := p.Solve()
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveFeasibilityBoundaryMatchesTheorem33(t *testing.T) {
	t.Parallel()
	p := validProblem()
	need, err := estimator.RequiredProbability(p.Accuracy, p.K, p.N)
	if err != nil {
		t.Fatal(err)
	}
	p.P = need * 1.2
	if _, err := p.Solve(); err != nil {
		t.Errorf("slightly above the Thm 3.3 rate should be feasible: %v", err)
	}
	p.P = need * 0.99
	if _, err := p.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("below the Thm 3.3 rate should be infeasible, got %v", err)
	}
}

func TestEpsilonForAlphaPrimeClosedForm(t *testing.T) {
	t.Parallel()
	p := validProblem()
	alphaPrime := 0.05
	plan, err := p.EpsilonForAlphaPrime(alphaPrime)
	if err != nil {
		t.Fatal(err)
	}
	at := alphaPrime * float64(p.N)
	deltaPrime := 1 - estimator.GlobalVariance(p.P, p.K)/(at*at)
	want := (1 / p.P) / ((p.Accuracy.Alpha - alphaPrime) * float64(p.N)) *
		math.Log(deltaPrime/(deltaPrime-p.Accuracy.Delta))
	if math.Abs(plan.Epsilon-want) > 1e-12 {
		t.Errorf("epsilon = %v, want closed form %v", plan.Epsilon, want)
	}
}

func TestEpsilonForAlphaPrimeRejectsOutOfRange(t *testing.T) {
	t.Parallel()
	p := validProblem()
	for _, bad := range []float64{0, -0.1, p.Accuracy.Alpha, 0.5, math.NaN()} {
		if _, err := p.EpsilonForAlphaPrime(bad); !errors.Is(err, ErrInfeasible) {
			t.Errorf("alpha'=%v: err = %v, want ErrInfeasible", bad, err)
		}
	}
}

func TestProblemValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Problem)
		want   string // a substring of the error, when set
	}{
		{name: "bad alpha", mutate: func(p *Problem) { p.Accuracy.Alpha = 0 }},
		{name: "bad delta", mutate: func(p *Problem) { p.Accuracy.Delta = 1 }},
		{name: "p zero", mutate: func(p *Problem) { p.P = 0 }},
		{name: "p above one", mutate: func(p *Problem) { p.P = 1.01 }},
		{name: "p NaN", mutate: func(p *Problem) { p.P = math.NaN() }, want: "sampling probability NaN"},
		{name: "k zero", mutate: func(p *Problem) { p.K = 0 }},
		{name: "n zero", mutate: func(p *Problem) { p.N = 0 }},
		{name: "negative sensitivity", mutate: func(p *Problem) { p.Sensitivity = -1 }},
		{name: "negative grid", mutate: func(p *Problem) { p.GridPoints = -1 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := validProblem()
			tc.mutate(&p)
			_, err := p.Solve()
			if err == nil {
				t.Fatal("Solve should reject invalid problem")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Solve error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCustomSensitivity(t *testing.T) {
	t.Parallel()
	p := validProblem()
	p.Sensitivity = 3
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sensitivity != 3 {
		t.Errorf("plan sensitivity = %v, want 3", plan.Sensitivity)
	}
	// Higher sensitivity should force a (weakly) larger epsilon than the
	// default 1/p = 5... here 3 < 5 so epsilon should shrink instead.
	def := validProblem()
	defPlan, err := def.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Epsilon >= defPlan.Epsilon {
		t.Errorf("sensitivity 3 < 1/p = 5 should need less budget: %v vs %v", plan.Epsilon, defPlan.Epsilon)
	}
}

// TestSolverAlwaysFeasibleProperty: for random feasible problems, Solve's
// plan always verifies, and the composite guarantee δ′·τ ≥ δ holds.
func TestSolverAlwaysFeasibleProperty(t *testing.T) {
	t.Parallel()
	f := func(alphaRaw, deltaRaw, pRaw float64, kRaw uint8) bool {
		alpha := 0.02 + math.Mod(math.Abs(alphaRaw), 0.5)
		delta := 0.05 + math.Mod(math.Abs(deltaRaw), 0.85)
		k := int(kRaw)%40 + 1
		n := 17568
		prob := Problem{
			Accuracy:   estimator.Accuracy{Alpha: alpha, Delta: delta},
			K:          k,
			N:          n,
			GridPoints: 300,
		}
		need, err := estimator.RequiredProbability(prob.Accuracy, k, n)
		if err != nil {
			return false
		}
		// Choose p comfortably above the feasibility threshold (and ≤ 1).
		p := need * (1.05 + math.Mod(math.Abs(pRaw), 3))
		if p > 1 {
			p = 1
		}
		prob.P = p
		plan, err := prob.Solve()
		if errors.Is(err, ErrInfeasible) {
			// Possible when need*1.05 rounds above 1 and p=1 still short —
			// only when alpha*n is tiny; accept.
			return need >= 0.95
		}
		if err != nil {
			return false
		}
		if prob.Verify(plan, 1e-6) != nil {
			return false
		}
		return plan.DeltaPrime*plan.Tau >= delta-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMoreSamplesNeverHurtPrivacy: raising the sampling rate enlarges the
// feasible region, so the optimal effective budget ε′ should not increase.
func TestMoreSamplesNeverHurtPrivacy(t *testing.T) {
	t.Parallel()
	base := validProblem()
	prev := math.Inf(1)
	for _, p := range []float64{0.1, 0.2, 0.4, 0.8, 1.0} {
		prob := base
		prob.P = p
		plan, err := prob.Solve()
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		// Allow a hair of grid slack.
		if plan.EpsilonPrime > prev*1.02 {
			t.Errorf("eps' grew from %v to %v when p rose to %v", prev, plan.EpsilonPrime, p)
		}
		prev = plan.EpsilonPrime
	}
}

func TestAmplificationConsistency(t *testing.T) {
	t.Parallel()
	p := validProblem()
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := dp.AmplifyBySampling(plan.Epsilon, p.P)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.EpsilonPrime-want) > 1e-12 {
		t.Errorf("EpsilonPrime = %v, want %v", plan.EpsilonPrime, want)
	}
}

func TestSolveRefinedNeverWorseThanGrid(t *testing.T) {
	t.Parallel()
	f := func(alphaRaw, deltaRaw, pScaleRaw float64, kRaw uint8) bool {
		alpha := 0.03 + math.Mod(math.Abs(alphaRaw), 0.4)
		delta := 0.1 + math.Mod(math.Abs(deltaRaw), 0.8)
		k := int(kRaw)%30 + 1
		prob := Problem{
			Accuracy:   estimator.Accuracy{Alpha: alpha, Delta: delta},
			K:          k,
			N:          17568,
			GridPoints: 200,
		}
		need, err := estimator.RequiredProbability(prob.Accuracy, k, prob.N)
		if err != nil {
			return false
		}
		p := math.Min(1, need*(1.1+math.Mod(math.Abs(pScaleRaw), 3)))
		prob.P = p
		gridPlan, gridErr := prob.Solve()
		refined, refErr := prob.SolveRefined()
		if gridErr != nil {
			return IsInfeasible(gridErr) == IsInfeasible(refErr)
		}
		if refErr != nil {
			return false
		}
		if refined.EpsilonPrime > gridPlan.EpsilonPrime+1e-15 {
			return false
		}
		return prob.Verify(refined, 1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolveRefinedImprovesCoarseGrid(t *testing.T) {
	t.Parallel()
	prob := validProblem()
	prob.GridPoints = 20 // deliberately coarse
	gridPlan, err := prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	refined, err := prob.SolveRefined()
	if err != nil {
		t.Fatal(err)
	}
	if refined.EpsilonPrime > gridPlan.EpsilonPrime {
		t.Errorf("refined %v should not exceed grid %v", refined.EpsilonPrime, gridPlan.EpsilonPrime)
	}
	// Against a fine grid, the coarse+refined result should be close to
	// optimal.
	fine := validProblem()
	fine.GridPoints = 20000
	finePlan, err := fine.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if refined.EpsilonPrime > finePlan.EpsilonPrime*1.001 {
		t.Errorf("coarse+refined %v should approach fine-grid optimum %v",
			refined.EpsilonPrime, finePlan.EpsilonPrime)
	}
}

// TestVerifyRefusesNonFinitePlans: every comparison Verify makes must
// fail on NaN, so a plan with any NaN field — the all-NaN plan an
// underflowing (α′n)² yields — or an overflowed ε′ is refused.
func TestVerifyRefusesNonFinitePlans(t *testing.T) {
	t.Parallel()
	prob := validProblem()
	plan, err := prob.SolveRefined()
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	mutations := map[string]func(*Plan){
		"alpha' NaN":    func(p *Plan) { p.AlphaPrime = nan },
		"delta' NaN":    func(p *Plan) { p.DeltaPrime = nan },
		"epsilon NaN":   func(p *Plan) { p.Epsilon = nan },
		"epsilon' NaN":  func(p *Plan) { p.EpsilonPrime = nan },
		"noise NaN":     func(p *Plan) { p.NoiseScale = nan },
		"epsilon' +Inf": func(p *Plan) { p.Epsilon, p.EpsilonPrime = math.Inf(1), math.Inf(1) },
		"all NaN": func(p *Plan) {
			*p = Plan{AlphaPrime: nan, DeltaPrime: nan, Epsilon: nan, EpsilonPrime: nan, Sensitivity: nan, NoiseScale: nan, Tau: nan}
		},
	}
	for name, mutate := range mutations {
		corrupt := plan
		mutate(&corrupt)
		if err := prob.Verify(corrupt, 1e-9); err == nil {
			t.Errorf("%s: Verify accepted %+v", name, corrupt)
		}
	}
}

func TestSolveRefinedInfeasible(t *testing.T) {
	t.Parallel()
	prob := validProblem()
	prob.P = 0.001
	if _, err := prob.SolveRefined(); !IsInfeasible(err) {
		t.Errorf("err = %v, want infeasible", err)
	}
}

// TestVerifyRejectsCorruptedPlans mutation-tests the guardrail: each
// field of a valid plan is corrupted in turn and Verify must catch it.
func TestVerifyRejectsCorruptedPlans(t *testing.T) {
	t.Parallel()
	prob := validProblem()
	plan, err := prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Plan)
	}{
		{name: "alpha' above alpha", mutate: func(p *Plan) { p.AlphaPrime = prob.Accuracy.Alpha * 1.5 }},
		{name: "alpha' zero", mutate: func(p *Plan) { p.AlphaPrime = 0 }},
		{name: "delta' below delta", mutate: func(p *Plan) { p.DeltaPrime = prob.Accuracy.Delta / 2 }},
		{name: "epsilon zero", mutate: func(p *Plan) { p.Epsilon = 0 }},
		{name: "noise too large", mutate: func(p *Plan) { p.NoiseScale *= 100 }},
		{name: "epsilon' inconsistent", mutate: func(p *Plan) { p.EpsilonPrime *= 2 }},
		{
			name: "alpha' too small for sampling rate",
			mutate: func(p *Plan) {
				p.AlphaPrime = prob.MinAlphaPrime() / 4
				// Keep delta' as-is: the sampling constraint must trip.
			},
		},
	}
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			corrupt := plan
			m.mutate(&corrupt)
			if err := prob.Verify(corrupt, 1e-9); err == nil {
				t.Error("Verify accepted a corrupted plan")
			}
		})
	}
	// The untouched plan still verifies (mutations copied by value).
	if err := prob.Verify(plan, 1e-9); err != nil {
		t.Errorf("original plan rejected: %v", err)
	}
}
