// Command privranged runs a data-broker daemon: it loads (or generates)
// the pollution dataset, spreads it over a simulated IoT deployment, and
// serves the trading protocol over TCP. Each of the five air-quality
// indexes is a purchasable dataset.
//
// Usage:
//
//	privranged [-addr 127.0.0.1:7070] [-data pollution.csv] [-nodes 16]
//	           [-seed 1] [-base-fee 1] [-tariff-c 1e9] [-budget 0]
//	           [-ops 127.0.0.1:7071] [-wal /var/lib/privrange]
//	           [-trace-sample 64] [-slo 0.99:20ms]
//
// The protocol is newline-delimited JSON; see cmd/privquery for a client.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"privrange"
	"privrange/internal/dataset"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		data     = flag.String("data", "", "CityPulse-style CSV to serve (default: generate synthetic)")
		nodes    = flag.Int("nodes", 16, "simulated IoT nodes per dataset")
		seed     = flag.Int64("seed", 1, "seed for generation, sampling and noise")
		baseFee  = flag.Float64("base-fee", 1, "flat per-query fee")
		tariffC  = flag.Float64("tariff-c", 1e9, "1/V tariff coefficient")
		budget   = flag.Float64("budget", 0, "total privacy budget cap per dataset (0 = uncapped)")
		prepaid  = flag.Bool("prepaid", false, "require prepaid customer accounts (privquery deposit)")
		wal      = flag.String("wal", "", "durability directory: journal every trade before acking, recover on boot")
		custCap  = flag.Float64("customer-cap", 0, "per-customer privacy cap per dataset (0 = uncapped)")
		ops      = flag.String("ops", "", "operational HTTP endpoint address (metrics, snapshot, pprof); empty disables")
		coalesce = flag.Bool("coalesce", false, "fold concurrent buys into batch sales (adds up to -coalesce-window latency)")
		coWindow = flag.Duration("coalesce-window", time.Millisecond, "longest a buy waits for batch companions")
		inflight = flag.Int("max-inflight", 1024, "admission cap on concurrent requests (-1 disables shedding)")
		depth    = flag.Int("pipeline-depth", 64, "pipelined requests in flight per connection")
		traceN   = flag.Int("trace-sample", 0, "trace 1 in N buys end to end, exported at /traces (0 disables; needs -ops)")
		sloSpec  = flag.String("slo", "", "buy-latency SLO as target:threshold, e.g. 0.99:20ms (burn gauges need -ops)")
	)
	flag.Parse()
	serveCfg := privrange.ServeConfig{MaxInFlight: *inflight, PipelineDepth: *depth}
	if err := run(*addr, *data, *nodes, *seed, *baseFee, *tariffC, *budget, *prepaid, *wal, *custCap, *ops, *coalesce, *coWindow, *traceN, *sloSpec, serveCfg); err != nil {
		fmt.Fprintf(os.Stderr, "privranged: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, dataPath string, nodes int, seed int64, baseFee, tariffC, budget float64, prepaid bool, walDir string, custCap float64, opsAddr string, coalesce bool, coWindow time.Duration, traceN int, sloSpec string, serveCfg privrange.ServeConfig) error {
	// Take over SIGINT/SIGTERM before anything else: a signal that
	// arrives during start-up waits in the channel and shuts the daemon
	// down cleanly once it is serving, instead of killing it by the
	// default action with the WAL uncompacted.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	table, err := loadTable(dataPath, seed)
	if err != nil {
		return err
	}
	mp, err := privrange.NewMarketplace(privrange.Tariff{Base: baseFee, C: tariffC})
	if err != nil {
		return err
	}
	if prepaid {
		mp.EnablePrepaid()
	}
	if opsAddr != "" {
		// Telemetry must be on before datasets register so every layer
		// is instrumented from the first collection round.
		mp.EnableTelemetry()
	}
	if traceN > 0 {
		mp.EnableTracing(traceN)
		fmt.Printf("privranged: tracing 1 in %d buys (GET /traces on the ops endpoint)\n", traceN)
	}
	if sloSpec != "" {
		slo, err := parseSLO(sloSpec)
		if err != nil {
			return fmt.Errorf("-slo %q: %w", sloSpec, err)
		}
		mp.DeclareBuySLO(slo)
		fmt.Printf("privranged: buy SLO target %g within %v (burn gauges on the ops endpoint)\n", slo.Target, slo.Threshold)
	}
	if custCap > 0 {
		if err := mp.SetCustomerPrivacyCap(custCap); err != nil {
			return err
		}
	}
	if walDir != "" {
		// After EnablePrepaid (recovered balances need wallets) and
		// before AddDataset (each dataset's spent ε restores as it
		// registers).
		if err := mp.EnableDurability(walDir); err != nil {
			return fmt.Errorf("enable durability in %s: %w", walDir, err)
		}
		fmt.Printf("privranged: durable accounting in %s (%d receipts recovered)\n", walDir, mp.Purchases())
	}
	for _, p := range dataset.Pollutants() {
		series, err := table.Series(p)
		if err != nil {
			return err
		}
		opts := privrange.Options{Nodes: nodes, Seed: seed + int64(p), TotalBudget: budget}
		if err := mp.AddDataset(p.String(), series.Values, opts); err != nil {
			return err
		}
	}
	if coalesce {
		mp.EnableCoalescing(privrange.CoalesceConfig{Window: coWindow})
		defer mp.DisableCoalescing()
		fmt.Printf("privranged: coalescing concurrent buys (window %v)\n", coWindow)
	}
	srv, err := mp.ServeWith(addr, serveCfg)
	if err != nil {
		return err
	}
	fmt.Printf("privranged: serving %d datasets of %d records on %s\n",
		len(dataset.Pollutants()), table.Len(), srv.Addr())
	if opsAddr != "" {
		opsSrv, err := mp.ServeOps(opsAddr)
		if err != nil {
			return err
		}
		defer opsSrv.Close()
		fmt.Printf("privranged: ops endpoint (metrics, snapshot, pprof) on http://%s\n", opsSrv.Addr())
	}

	<-stop
	fmt.Println("privranged: shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	if walDir != "" {
		if err := mp.CloseDurability(); err != nil {
			return err
		}
		fmt.Printf("privranged: compacted %d receipts into %s\n", mp.Purchases(), walDir)
	}
	return nil
}

// parseSLO parses "target:threshold" (e.g. "0.99:20ms"). A bare target
// with no colon declares a pure availability objective.
func parseSLO(spec string) (privrange.SLO, error) {
	targetStr, thresholdStr, hasThreshold := strings.Cut(spec, ":")
	target, err := strconv.ParseFloat(targetStr, 64)
	if err != nil || target <= 0 || target >= 1 {
		return privrange.SLO{}, fmt.Errorf("target must be a fraction in (0, 1)")
	}
	slo := privrange.SLO{Name: "buy", Target: target}
	if hasThreshold {
		d, err := time.ParseDuration(thresholdStr)
		if err != nil || d <= 0 {
			return privrange.SLO{}, fmt.Errorf("threshold must be a positive duration, e.g. 20ms")
		}
		slo.Threshold = d
	}
	return slo, nil
}

func loadTable(path string, seed int64) (*dataset.Table, error) {
	if path == "" {
		return dataset.Generate(dataset.GenerateConfig{Seed: seed})
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}
