package optimize

import (
	"errors"
	"math"
)

// SolveRefined runs the grid search and then polishes the winner with a
// golden-section search over α′ in the bracket spanned by the winning
// grid point's neighbours. ε′(α′) is continuous and — empirically across
// the feasible interval — unimodal (it diverges at both ends: α′ → α
// leaves no noise slack, α′ → α′_min leaves no confidence slack), so the
// bracket refinement converges to the interior optimum far past grid
// resolution. The returned plan is always feasible and never worse than
// the plain grid solution.
func (p *Problem) SolveRefined() (Plan, error) {
	best, bestPrime, err := p.scan()
	if err != nil {
		return Plan{}, err
	}
	lo := p.MinAlphaPrime()
	hi := p.Accuracy.Alpha
	grid := float64(p.grid())
	step := (hi - lo) / grid

	// Bracket one grid step to each side of the winner, clipped to the
	// open feasible interval.
	a := math.Max(lo+1e-12, best-step)
	b := math.Min(hi-1e-12, best+step)
	if a >= b {
		return p.EpsilonForAlphaPrime(best)
	}

	// Probes rank on ε′ alone; infeasible ones (possible at the extreme
	// ends of the bracket) rank as +Inf.
	o := p.objective()
	const (
		invPhi = 0.6180339887498949 // (√5 − 1) / 2
		iters  = 60
	)
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := o.epsPrime(c), o.epsPrime(d)
	for i := 0; i < iters && b-a > 1e-14; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = o.epsPrime(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = o.epsPrime(d)
		}
	}
	if fc < bestPrime {
		best, bestPrime = c, fc
	}
	if fd < bestPrime {
		best = d
	}
	return p.EpsilonForAlphaPrime(best)
}

// IsInfeasible reports whether err (from Solve or SolveRefined) means the
// accuracy requirement cannot be met at the current sampling rate.
func IsInfeasible(err error) bool {
	return errors.Is(err, ErrInfeasible)
}
