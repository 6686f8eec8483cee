package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailChunks is how many consecutive chunks p99 splits a sample into.
const tailChunks = 10

// p99 is the median, over tailChunks consecutive chunks of xs (in
// arrival order), of each chunk's 99th percentile. One stall on a
// shared machine then moves a single chunk, not the reported tail.
// Chunks keep at least 100 samples, so each chunk's p99 has at least
// one sample beyond it, and ten or more once xs holds 10,000.
func p99(xs []float64) float64 {
	chunks := min(tailChunks, max(1, len(xs)/100))
	size := len(xs) / chunks
	tails := make([]float64, chunks)
	for i := range tails {
		tails[i] = quantile(xs[i*size:(i+1)*size], 0.99)
	}
	return median(tails)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// binomLowerTail returns Pr[X ≤ k] for X ~ Binomial(n, p), summed in
// log space so it stays exact enough for n in the tens of thousands.
func binomLowerTail(k, n int, p float64) float64 {
	if k >= n {
		return 1
	}
	if k < 0 {
		return 0
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := 0; i <= k; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgNI + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return math.Min(1, sum)
}

// bootstrapRatio returns a (lo, hi) percentile interval of
// median(a)/median(b) from resampling both samples, deterministic in
// seed. It is the interval reported for the tracing overhead.
func bootstrapRatio(a, b []float64, seed int64, rounds int) (lo, hi float64) {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN(), math.NaN()
	}
	rng := rand.New(rand.NewSource(seed))
	ratios := make([]float64, rounds)
	ra := make([]float64, len(a))
	rb := make([]float64, len(b))
	for r := range ratios {
		for i := range ra {
			ra[i] = a[rng.Intn(len(a))]
		}
		for i := range rb {
			rb[i] = b[rng.Intn(len(b))]
		}
		ratios[r] = median(ra) / median(rb)
	}
	sort.Float64s(ratios)
	return sortedQuantile(ratios, 0.025), sortedQuantile(ratios, 0.975)
}
