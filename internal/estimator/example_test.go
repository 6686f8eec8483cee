package estimator_test

import (
	"fmt"
	"log"
	"sort"

	"privrange/internal/estimator"
	"privrange/internal/sampling"
	"privrange/internal/stats"
)

// Example shows the RankCounting estimator on a single node: samples are
// drawn with their local ranks, and the boundary ranks reconstruct the
// interior count.
func Example() {
	// Node data: 1000 sorted readings 0..999.
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i)
	}
	sort.Float64s(data)

	const p = 0.2
	set, err := sampling.Draw(data, p, stats.NewRNG(7))
	if err != nil {
		log.Fatal(err)
	}

	rc := estimator.RankCounting{P: p}
	est, err := rc.EstimateNode(set, estimator.Query{L: 250, U: 749})
	if err != nil {
		log.Fatal(err)
	}
	// Truth is 500; the estimate deviates by two truncated-geometric
	// boundary gaps with standard deviation ≤ √(2(1−p))/p ≈ 6.3.
	fmt.Println("within 5 sigma of 500:", est > 500-5*6.33 && est < 500+5*6.33)
	bound := rc.NodeVarianceBound()
	fmt.Println("variance bound ~40:", bound > 39.9 && bound < 40.1)
	// Output:
	// within 5 sigma of 500: true
	// variance bound ~40: true
}

// ExampleRequiredProbability computes the Theorem 3.3 sampling rate for
// the CityPulse-scale deployment and its expected traffic.
func ExampleRequiredProbability() {
	acc := estimator.Accuracy{Alpha: 0.055, Delta: 0.5}
	p, err := estimator.RequiredProbability(acc, 10, 17568)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rate: %.4f\n", p)
	fmt.Printf("expected samples: %.0f of 17568\n", estimator.ExpectedSamples(17568, p))
	// Output:
	// rate: 0.0065
	// expected samples: 115 of 17568
}
