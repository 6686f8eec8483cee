package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/index"
	"privrange/internal/iot"
	"privrange/internal/market"
	"privrange/internal/optimize"
	"privrange/internal/pricing"
	"privrange/internal/shard"
	"privrange/internal/stats"
)

// Replay sizes of the in-process layer suite.
const (
	replayBuys     = 200
	replayQuotes   = 200
	replayDeposits = 100
	replayRounds   = 100
)

// Reconciliation bounds. The layer calls on a buy's blocking path —
// pricing.quote, optimize.solve, estimator.estimate and dp.release —
// must explain Broker.Buy's median within buyExplainedTol; the
// shard tier's IngestRound must explain System.Ingest within
// ingestExplainedTol; and each layer median must fall inside the
// daemon's own privrange_stage_seconds median bucket, widened by one
// ×2.5 bucket step on each side. Below stageFloor a stage's time is
// mostly the daemon's own clock reads and span bookkeeping, so there a
// layer agrees when both sides are under the floor.
const (
	buyExplainedTol    = 0.25
	ingestExplainedTol = 0.35
	stageSlack         = 2.5
	stageFloor         = 5e-6 // seconds
)

// span is one timed layer call: spans of one request share Req, and
// Parent names the span whose work this call is part of (0 for a root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) timed(name string, req, parent int, fn func() error) (int, error) {
	id := len(r.spans) + 1
	start := time.Now()
	err := fn()
	end := time.Now()
	r.spans = append(r.spans, span{Name: name, Req: req, ID: id, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id, err
}

// selfTimes returns, per span name, every span's duration and its self
// time: the duration minus its children's durations. The replay times a
// child in its own call right after its parent, so self time is the
// parent's work that no child call accounts for.
func selfTimes(spans []span) (total, self map[string][]float64) {
	children := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] = append(total[s.Name], float64(d)/1e3)
		self[s.Name] = append(self[s.Name], float64(d-children[s.ID])/1e3)
	}
	return total, self
}

// tracedRun is the outcome of --trace 1.
type tracedRun struct {
	metrics           map[string]metric
	problems          []string
	attempted, failed int
	table             string
	spans             []span
	overhead          map[string]float64
}

// layerRow documents one per-layer metric: its unit and the end-to-end
// metric and workload it should move.
type layerRow struct {
	name, unit, moves string
}

var layerRows = []layerRow{
	{"market.transport_us", "us", "quote_p50_ms @ buy-open"},
	{"market.bytes_per_req", "B", "quote_p50_ms @ buy-open"},
	{"market.shed_frac", "1", "error_rate @ buy-open"},
	{"pricing.quote_us", "us", "quote_p50_ms @ buy-open"},
	{"market.sale_overhead_us", "us", "buy_p50_ms @ buy-open"},
	{"core.answer_us", "us", "buy_p50_ms @ buy-open, trade-durable"},
	{"optimize.solve_us", "us", "buy_p50_ms, buy_p99_ms @ buy-open; batch_p50_ms @ ingest-batch"},
	{"optimize.share_of_answer", "1", "buy_p50_ms @ buy-open"},
	{"estimator.estimate_us", "us", "buy_p50_ms @ buy-open (predicted small)"},
	{"estimator.batch_us", "us", "batch_p50_ms @ ingest-batch"},
	{"dp.release_us", "us", "buy_p50_ms @ buy-open (predicted ~0)"},
	{"wal.deposit_us", "us", "deposit_p50_ms @ trade-durable"},
	{"wal.fsyncs_per_op", "1", "ops_per_s, deposit_p99_ms @ trade-durable"},
	{"wal.bytes_per_op", "B", "ops_per_s, deposit_p99_ms @ trade-durable"},
	{"wal.compactions", "count", "deposit_p99_ms @ trade-durable"},
	{"wal.recovery_s", "s", "setup_s @ trade-durable"},
	{"iot.ingest_round_ms", "ms", "ingest_p50_ms @ ingest-batch (S=1 reference)"},
	{"shard.ingest_round_ms", "ms", "ingest_p50_ms @ ingest-batch"},
	{"iot.bytes_per_round", "B", "ingest_p50_ms @ ingest-batch"},
	{"iot.samples_per_round", "count", "ingest_p50_ms @ ingest-batch"},
	{"index.build_us", "us", "ingest_p50_ms @ ingest-batch; setup_s"},
	{"telemetry.trace_overhead_pct", "%", "every metric, as a measured interval"},
	{"gen.late_ms_p99", "ms", "validity of buy-open"},
	{"recon.buy_explained", "1", "reconciliation: layer sum / Broker.Buy"},
	{"recon.ingest_explained", "1", "reconciliation: shard round / System.Ingest"},
}

// runTraced is --trace 1: an untraced pass of the named workload as the
// overhead base, a traced pass of every workload (daemons get an ops
// endpoint and trace every request), then an in-process replay that
// times each layer's public calls on the generated inputs.
func runTraced(cfg *config) (*tracedRun, error) {
	part := cfg.seconds / 3
	out := &tracedRun{overhead: map[string]float64{}}
	base, err := workloads[cfg.workload](cfg, false, part, 1)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	passes := map[string]*pass{}
	for _, w := range []string{"buy-open", "trade-durable", "ingest-batch"} {
		p, err := workloads[w](cfg, true, part, 1)
		if err != nil {
			return nil, fmt.Errorf("traced %s pass: %w", w, err)
		}
		passes[w] = p
	}
	for _, p := range append([]*pass{base}, passes["buy-open"], passes["trade-durable"], passes["ingest-batch"]) {
		out.attempted += p.attempted
		out.failed += p.failed
		for _, pr := range p.problems {
			out.problems = append(out.problems, p.workload+": "+pr)
		}
	}

	rec := &recorder{t0: time.Now()}
	quoteHandle, err := replayMarket(rec, passes["buy-open"])
	if err != nil {
		return nil, fmt.Errorf("market replay: %w", err)
	}
	if err := replayDurable(rec, filepath.Join(cfg.runDir, "replay-wal")); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	if err := replayIngest(rec, passes["ingest-batch"].ingest, cfg.seed); err != nil {
		return nil, fmt.Errorf("ingest replay: %w", err)
	}
	total, self := selfTimes(rec.spans)
	med := func(name string) float64 { return median(total[name]) }

	v := map[string]float64{}
	for _, p := range passes {
		for k, x := range p.layer {
			v[k] = x
		}
	}
	bo := passes["buy-open"]
	v["market.transport_us"] = median(bo.quoteRTT)*1e3 - median(quoteHandle)
	v["pricing.quote_us"] = med("pricing.quote")
	v["market.sale_overhead_us"] = med("market.buy") - med("core.answer")
	v["core.answer_us"] = med("core.answer")
	v["optimize.solve_us"] = med("optimize.solve")
	v["optimize.share_of_answer"] = med("optimize.solve") / med("core.answer")
	v["estimator.estimate_us"] = med("estimator.estimate")
	v["estimator.batch_us"] = med("estimator.batch")
	v["dp.release_us"] = med("dp.release")
	v["wal.deposit_us"] = med("wal.deposit")
	v["iot.ingest_round_ms"] = med("iot.ingest_round") / 1e3
	v["shard.ingest_round_ms"] = med("shard.ingest_round") / 1e3
	v["index.build_us"] = med("index.build")
	v["gen.late_ms_p99"] = quantile(bo.late, 0.99)
	ratio := median(passes[cfg.workload].release) / median(base.release)
	v["telemetry.trace_overhead_pct"] = (ratio - 1) * 100
	lo, hi := bootstrapRatio(passes[cfg.workload].release, base.release, cfg.seed, 200)
	out.overhead = map[string]float64{
		"pct": (ratio - 1) * 100, "lo_pct": (lo - 1) * 100, "hi_pct": (hi - 1) * 100,
		"base_release_p50_ms": median(base.release), "traced_release_p50_ms": median(passes[cfg.workload].release),
	}

	// Reconciliation 1: the blocking-path layers explain Broker.Buy.
	v["recon.buy_explained"] = (med("pricing.quote") + med("optimize.solve") + med("estimator.estimate") + med("dp.release")) / med("market.buy")
	if math.Abs(v["recon.buy_explained"]-1) > buyExplainedTol {
		out.problems = append(out.problems, fmt.Sprintf("reconciliation: buy-path layers explain %.3f of Broker.Buy, outside 1±%v", v["recon.buy_explained"], buyExplainedTol))
	}
	if v["market.transport_us"] < 0 {
		out.problems = append(out.problems, fmt.Sprintf("reconciliation: market.transport_us = %.2f is negative", v["market.transport_us"]))
	}
	// Reconciliation 2: the shard tier's round explains System.Ingest
	// over the same first rounds.
	ing := passes["ingest-batch"].support
	v["recon.ingest_explained"] = med("shard.ingest_round") / 1e3 / median(ing[:min(len(ing), replayRounds)])
	if math.Abs(v["recon.ingest_explained"]-1) > ingestExplainedTol {
		out.problems = append(out.problems, fmt.Sprintf("reconciliation: shard rounds explain %.3f of System.Ingest, outside 1±%v", v["recon.ingest_explained"], ingestExplainedTol))
	}
	// Reconciliation 3: layer medians agree with the daemon's own stage
	// histograms from the traced buy-open pass.
	var stageLines []string
	for _, sc := range []struct{ layer, stage string }{
		{"optimize.solve", "core.answer.optimize"},
		{"estimator.estimate", "core.answer.estimate"},
		{"dp.release", "core.answer.perturb"},
		{"pricing.quote", "market.buy.price"},
		{"core.answer", "core.answer"},
	} {
		lo, hi, n := bo.scraped.stageBucket(sc.stage)
		got := med(sc.layer) / 1e6
		agree := n > 0 && ((got >= lo/stageSlack && got <= hi*stageSlack) || (hi <= stageFloor && got <= stageFloor))
		stageLines = append(stageLines, fmt.Sprintf("  %-20s %10.2f us  vs %-22s median bucket (%g, %g] us over %.0f spans: %s",
			sc.layer, got*1e6, sc.stage, lo*1e6, hi*1e6, n, map[bool]string{true: "agree", false: "DISAGREE"}[agree]))
		if !agree {
			out.problems = append(out.problems, fmt.Sprintf("reconciliation: %s median %.2fus outside stage %s bucket (%g, %g]us", sc.layer, got*1e6, sc.stage, lo*1e6, hi*1e6))
		}
	}

	out.metrics = map[string]metric{}
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics (traced run of %s, seed %d)\n", cfg.workload, cfg.seed)
	for _, row := range layerRows {
		x, ok := v[row.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			out.problems = append(out.problems, "per-layer metric "+row.name+" was not measured")
			x = 0
		}
		out.metrics[row.name] = metric{x, row.unit}
		fmt.Fprintf(&b, "  %-30s %14.6g %-5s moves %s\n", row.name, x, row.unit, row.moves)
	}
	fmt.Fprintf(&b, "tracing overhead on %s release_p50: %+.2f%% (95%% bootstrap interval %+.2f%% .. %+.2f%%), base %.4f ms untraced vs %.4f ms traced\n",
		cfg.workload, out.overhead["pct"], out.overhead["lo_pct"], out.overhead["hi_pct"], out.overhead["base_release_p50_ms"], out.overhead["traced_release_p50_ms"])
	fmt.Fprintf(&b, "layer self times (in-process replay)\n")
	names := make([]string, 0, len(total))
	for k := range total {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-20s n=%-4d self p50 %10.2f us   total p50 %10.2f us\n", k, len(total[k]), median(self[k]), median(total[k]))
	}
	fmt.Fprintf(&b, "stage-histogram agreement (daemon privrange_stage_seconds, traced buy-open pass)\n%s\n", strings.Join(stageLines, "\n"))
	out.table = b.String()
	out.spans = append(rec.spans, passes["ingest-batch"].spans...)
	return out, nil
}

// daemonTariff is privranged's default tariff (-base-fee 1 -tariff-c 1e9).
var daemonTariff = pricing.BaseFeePlusInverse{Base: 1, C: 1e9}

// partition splits values into k contiguous parts exactly as the
// library facade does.
func partition(values []float64, k int) [][]float64 {
	parts := make([][]float64, k)
	base, extra, off := len(values)/k, len(values)%k, 0
	for i := range parts {
		size := base
		if i < extra {
			size++
		}
		parts[i] = values[off : off+size]
		off += size
	}
	return parts
}

// replayMarket builds a broker the way privranged does (same tariff,
// same per-dataset seeds, 16 nodes each) and replays the traced
// buy-open pass's first buys and quotes through it, one layer call per
// span. It returns the in-process Broker.Handle times of the quotes (µs).
func replayMarket(rec *recorder, p *pass) ([]float64, error) {
	in := p.inputs
	b, err := market.NewBroker(daemonTariff)
	if err != nil {
		return nil, err
	}
	b.AttachWallets(&market.Wallets{})
	engines := map[string]*core.Engine{}
	networks := map[string]*iot.Network{}
	for i, name := range in.names {
		seed := 1 + int64(i+1) // privranged: -seed 1 plus the pollutant's index
		nw, err := iot.New(partition(in.values[name], daemonNodes), iot.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		acct, err := dp.NewAccountant(0)
		if err != nil {
			return nil, err
		}
		eng, err := core.New(nw, core.WithSeed(seed+1), core.WithAccountant(acct))
		if err != nil {
			return nil, err
		}
		if err := b.Register(name, eng, len(in.values[name]), daemonNodes); err != nil {
			return nil, err
		}
		engines[name], networks[name] = eng, nw
	}
	for c := 0; c < openLoopCustomers; c++ {
		if err := b.Deposit(fmt.Sprintf("c%d", c), startBalance); err != nil {
			return nil, err
		}
	}
	for _, name := range in.names {
		for _, t := range priceList {
			if _, err := b.Buy(market.Request{Dataset: name, Customer: "c0", L: in.lo[name], U: in.hi[name], Alpha: t.Alpha, Delta: t.Delta}); err != nil {
				return nil, err
			}
		}
	}
	rng := stats.NewRNG(1)
	scratch, err := dp.NewAccountant(0)
	if err != nil {
		return nil, err
	}
	var handles []float64
	buys, quotes := 0, 0
	for r, o := range p.stream {
		req := o.Req
		switch {
		case req.Op == "buy" && buys < replayBuys:
			buys++
			buy, err := rec.timed("market.buy", r, 0, func() error { _, err := b.Buy(req); return err })
			if err != nil {
				return nil, err
			}
			if _, err := rec.timed("pricing.quote", r, buy, func() error { _, _, err := b.Quote(req.Dataset, req.Accuracy()); return err }); err != nil {
				return nil, err
			}
			eng := engines[req.Dataset]
			answer, err := rec.timed("core.answer", r, buy, func() error { _, err := eng.Answer(req.Query(), req.Accuracy()); return err })
			if err != nil {
				return nil, err
			}
			_, _, rate, nodes, n, _, _ := networks[req.Dataset].Snapshot()
			var plan optimize.Plan
			if _, err := rec.timed("optimize.solve", r, answer, func() error {
				prob := optimize.Problem{Accuracy: req.Accuracy(), P: rate, K: nodes, N: n}
				plan, err = prob.SolveRefined()
				return err
			}); err != nil {
				return nil, err
			}
			var raw float64
			if _, err := rec.timed("estimator.estimate", r, answer, func() error { raw, err = eng.EstimateOnly(req.Query()); return err }); err != nil {
				return nil, err
			}
			if _, err := rec.timed("dp.release", r, answer, func() error {
				mech, err := dp.NewMechanism(plan.Epsilon, plan.Sensitivity)
				if err != nil {
					return err
				}
				_ = mech.Perturb(raw, rng)
				return scratch.Spend(plan.EpsilonPrime)
			}); err != nil {
				return nil, err
			}
		case req.Op == "quote" && quotes < replayQuotes:
			quotes++
			var resp *market.Response
			id, _ := rec.timed("market.handle", r, 0, func() error { resp = b.Handle(req); return nil })
			if !resp.OK {
				return nil, fmt.Errorf("in-process quote: %s", resp.Error)
			}
			s := rec.spans[id-1]
			handles = append(handles, float64(s.End-s.Start)/1e3)
		}
	}
	return handles, nil
}

// replayDurable times durable Broker.Deposit: each call journals and
// fsyncs one WAL record.
func replayDurable(rec *recorder, dir string) error {
	b, err := market.NewBroker(daemonTariff)
	if err != nil {
		return err
	}
	b.AttachWallets(&market.Wallets{})
	if err := b.EnableDurability(dir); err != nil {
		return err
	}
	for i := 0; i < replayDeposits; i++ {
		if _, err := rec.timed("wal.deposit", i, 0, func() error { return b.Deposit("w", 1) }); err != nil {
			return err
		}
	}
	return b.CloseDurability()
}

// replayIngest drives the collection tier directly with ingest-batch's
// first rounds: the same batches go to one iot.Network (S=1) and to a
// four-shard shard.Cluster, each brought to the facade's sampling rate
// by an engine answering the first batch; then the cluster's sample
// sets are indexed and the round's 32 ranges estimated in one batch
// over that index.
func replayIngest(rec *recorder, in *ingestInputs, seed int64) error {
	parts := partition(in.initial, ingestNodes)
	nw, err := iot.New(parts, iot.Config{Seed: seed})
	if err != nil {
		return err
	}
	cl, err := shard.New(parts, ingestShards, iot.Config{Seed: seed})
	if err != nil {
		return err
	}
	acc := estimator.Accuracy{Alpha: batchTier.Alpha, Delta: batchTier.Delta}
	first := make([]estimator.Query, len(in.ranges[0]))
	for i, r := range in.ranges[0] {
		first[i] = estimator.Query{L: r.L, U: r.U}
	}
	for _, src := range []core.Source{nw, cl} {
		eng, err := core.New(src, core.WithSeed(seed+1))
		if err != nil {
			return err
		}
		if _, err := eng.AnswerBatch(first, acc); err != nil {
			return err
		}
	}
	out := make([]float64, batchQueries)
	for r := 1; r <= min(replayRounds, len(in.chunks)); r++ {
		perNode := make([][]float64, ingestNodes)
		for i, v := range in.chunks[r-1] {
			perNode[i%ingestNodes] = append(perNode[i%ingestNodes], v)
		}
		if _, err := rec.timed("iot.ingest_round", r, 0, func() error { return nw.IngestRound(perNode) }); err != nil {
			return err
		}
		if _, err := rec.timed("shard.ingest_round", r, 0, func() error { return cl.IngestRound(perNode) }); err != nil {
			return err
		}
		sets := cl.SampleSets()
		var idx *index.Index
		if _, err := rec.timed("index.build", r, 0, func() error { idx, err = index.Build(sets); return err }); err != nil {
			return err
		}
		rate := cl.Rate()
		qs := make([]estimator.Query, len(in.ranges[r]))
		for i, q := range in.ranges[r] {
			qs[i] = estimator.Query{L: q.L, U: q.U}
		}
		if _, err := rec.timed("estimator.batch", r, 0, func() error {
			return estimator.RankCounting{P: rate}.EstimateIndexBatch(idx, qs, out)
		}); err != nil {
			return err
		}
	}
	return nil
}
