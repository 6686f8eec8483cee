package privrange_test

import (
	"fmt"
	"log"

	"privrange"
	"privrange/internal/dataset"
)

// ExampleSystem_Count shows the core flow: one differentially-private
// (α, δ)-range count over a simulated deployment.
func ExampleSystem_Count() {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 1, Records: 8000})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := privrange.NewSystem(series.Values, privrange.Options{Nodes: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := sys.Count(50, 100, privrange.Accuracy{Alpha: 0.05, Delta: 0.9})
	if err != nil {
		log.Fatal(err)
	}
	truth, err := series.RangeCount(50, 100)
	if err != nil {
		log.Fatal(err)
	}
	withinContract := ans.Value >= float64(truth)-0.05*float64(sys.N()) &&
		ans.Value <= float64(truth)+0.05*float64(sys.N())
	fmt.Println("answer within the (alpha, delta) contract:", withinContract)
	fmt.Println("effective budget below base budget:", ans.EpsilonPrime < ans.Epsilon)
	// Output:
	// answer within the (alpha, delta) contract: true
	// effective budget below base budget: true
}

// ExampleMarketplace shows the trading flow: quote, fund, buy.
func ExampleMarketplace() {
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 2, Records: 8000})
	if err != nil {
		log.Fatal(err)
	}
	mp, err := privrange.NewMarketplace(privrange.Tariff{Base: 1, C: 1e9})
	if err != nil {
		log.Fatal(err)
	}
	if err := mp.AddDataset("ozone", series.Values, privrange.Options{Nodes: 8, Seed: 2}); err != nil {
		log.Fatal(err)
	}
	mp.EnablePrepaid()

	acc := privrange.Accuracy{Alpha: 0.1, Delta: 0.6}
	quote, err := mp.Quote("ozone", acc)
	if err != nil {
		log.Fatal(err)
	}
	if err := mp.Deposit("alice", quote.Price*2); err != nil {
		log.Fatal(err)
	}
	res, err := mp.Buy("alice", "ozone", 40, 90, acc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("charged the quoted price:", res.Price == quote.Price)
	fmt.Println("sale recorded:", mp.Purchases() == 1)
	fmt.Printf("remaining balance: %.2f x price\n", mp.Balance("alice")/quote.Price)
	// Output:
	// charged the quoted price: true
	// sale recorded: true
	// remaining balance: 1.00 x price
}
