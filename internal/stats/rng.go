// Package stats provides the shared numerical machinery used across the
// privrange modules: deterministic splittable random number generation,
// running moments, quantiles, relative-error metrics, and the Chebyshev
// bounds that underpin the paper's (α, δ) accuracy guarantees.
//
// Everything in this package is deterministic given a seed so that every
// experiment in EXPERIMENTS.md reproduces bit-for-bit.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic, splittable random source. Experiments hand each
// node / trial its own Child so that changing the number of trials does not
// perturb the stream any single trial sees.
type RNG struct {
	rand *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{rand: rand.New(rand.NewSource(seed))}
}

// Child derives an independent RNG from this RNG's stream position and id.
// It incorporates the parent seed material, so two parents with different
// seeds yield different children for the same id.
func (r *RNG) Child(id int64) *RNG {
	base := r.rand.Uint64()
	return &RNG{rand: rand.New(rand.NewSource(int64(splitmix(base ^ splitmix(uint64(id))))))}
}

// splitmix is the SplitMix64 finalizer, a strong 64-bit mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.rand.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.rand.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return r.rand.Int63() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.rand.NormFloat64() }

// Bernoulli returns true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rand.Float64() < p
}

// Exponential returns an exponential variate with the given mean.
func (r *RNG) Exponential(mean float64) float64 {
	return r.rand.ExpFloat64() * mean
}

// Laplace returns a Laplace variate with location 0 and the given scale,
// sampled by inverse CDF: if U ~ Uniform(-1/2, 1/2) then
// -scale·sgn(U)·ln(1-2|U|) ~ Lap(scale).
func (r *RNG) Laplace(scale float64) float64 {
	u := r.rand.Float64() - 0.5
	if u == 0 {
		return 0
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
	}
	return -scale * sign * math.Log(1-2*math.Abs(u))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.rand.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.rand.Shuffle(n, swap) }
