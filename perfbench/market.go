package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"privrange/internal/market"
)

// Sizes of the two daemon workloads.
const (
	openLoopRate      = 1000 // buy-open requests per second
	openLoopConns     = 2
	openLoopCustomers = 4
	durableCustomers  = 2
	// durableOpsPerSecond sizes trade-durable's fixed work: operations
	// per customer per second of --seconds, about what two serial
	// customers complete on a 2-core box with an fsync per operation.
	durableOpsPerSecond = 1500
	// maxLateMS rejects an open-loop run whose generator fell behind:
	// a p99 send lateness above it means arrivals no longer followed
	// the schedule.
	maxLateMS = 50
	// startBalance funds each buy-open customer for the whole run.
	startBalance = 1e12
)

// session is one running daemon plus the clients and quotes a
// workload's set-up produced.
type session struct {
	d       *daemon
	in      *inputs
	clients []*market.Client
	quotes  map[string]float64 // dataset/tier -> quoted price
	warm    []*market.Response // set-up buys, one per dataset × tier
	walDir  string
}

func quoteKey(dataset string, t tier) string {
	return fmt.Sprintf("%s/%v/%v", dataset, t.Alpha, t.Delta)
}

func (s *session) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	return s.d.stop()
}

// startSession runs one set-up: generate inputs, launch the daemon,
// connect, fund customers and serve every tier's first answer on every
// dataset. Its duration is one setup_s sample.
func startSession(cfg *config, traced bool, tiers []tier, conns int, pipelined bool, walDir string, customers []string, balance float64) (*session, error) {
	in, err := makeInputs(cfg.runDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-prepaid", "-data", in.csv}
	if walDir != "" {
		args = append(args, "-wal", walDir)
	}
	if traced {
		args = append(args, "-ops", "127.0.0.1:0", "-trace-sample", "1")
	}
	d, err := startDaemon(cfg.daemon, args...)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, in: in, quotes: map[string]float64{}, walDir: walDir}
	fail := func(err error) (*session, error) {
		_ = s.close()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		var opts []market.DialOption
		if pipelined {
			opts = append(opts, market.WithPipelining())
		}
		c, err := market.Dial(d.addr, opts...)
		if err != nil {
			return fail(err)
		}
		s.clients = append(s.clients, c)
	}
	for _, name := range in.names {
		for _, t := range tiers {
			price, _, err := s.clients[0].Quote(name, t.Alpha, t.Delta)
			if err != nil {
				return fail(fmt.Errorf("quote %s: %w", quoteKey(name, t), err))
			}
			s.quotes[quoteKey(name, t)] = price
		}
	}
	if balance == 0 {
		// trade-durable: fund 100 buys at the tier's dearest dataset.
		for _, p := range s.quotes {
			balance = max(balance, 100*p)
		}
	}
	for _, cust := range customers {
		if _, err := s.clients[0].Deposit(cust, balance); err != nil {
			return fail(fmt.Errorf("fund %s: %w", cust, err))
		}
	}
	for _, name := range in.names {
		for _, t := range tiers {
			l, u := in.lo[name], in.hi[name]
			resp, err := s.clients[0].Buy(market.Request{Dataset: name, Customer: customers[0], L: l, U: (l + u) / 2, Alpha: t.Alpha, Delta: t.Delta})
			if err != nil {
				return fail(fmt.Errorf("first buy of %s: %w", quoteKey(name, t), err))
			}
			s.warm = append(s.warm, resp)
		}
	}
	return s, nil
}

// setUp repeats startSession reps times, keeping the last session and
// recording each repetition's duration.
func setUp(cfg *config, p *pass, reps int, start func(rep int) (*session, error)) (*session, error) {
	var s *session
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		var err error
		s, err = start(rep)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if rep < reps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// sale checks one completed buy: the price and ε′ equal the quote and
// the plan, the receipt echoes them, and the value is scored against
// ground truth. It returns the receipt id (0 when there is none).
func (s *session) sale(c *checker, req market.Request, resp *market.Response) int64 {
	t := tier{req.Alpha, req.Delta}
	n := len(s.in.values[req.Dataset])
	if want := s.quotes[quoteKey(req.Dataset, t)]; resp.Price != want {
		c.failf("buy %s charged %v, quoted %v", quoteKey(req.Dataset, t), resp.Price, want)
	}
	c.epsilon(t, resp.Rate, daemonNodes, n, resp.EpsilonPrime)
	c.answer(t, n, resp.Value, s.in.truth(req.Dataset, req.L, req.U))
	if resp.Receipt == nil {
		c.failf("buy %s returned no receipt", quoteKey(req.Dataset, t))
		return 0
	}
	if resp.Receipt.Price != resp.Price || resp.Receipt.EpsilonPrime != resp.EpsilonPrime {
		c.failf("receipt %d disagrees with its sale", resp.Receipt.ID)
	}
	return resp.Receipt.ID
}

func (s *session) warmReceipts(c *checker, tiers []tier) []int64 {
	var ids []int64
	i := 0
	for _, name := range s.in.names {
		for _, t := range tiers {
			l, u := s.in.lo[name], s.in.hi[name]
			req := market.Request{Dataset: name, L: l, U: (l + u) / 2, Alpha: t.Alpha, Delta: t.Delta}
			ids = append(ids, s.sale(c, req, s.warm[i]))
			i++
		}
	}
	return ids
}

// outcome is one request's result in a measured phase.
type outcome struct {
	resp     *market.Response
	err      error
	lat      time.Duration // from due (open loop) or send (closed loop) to reply
	late     time.Duration // open loop: send time minus due time
	finished time.Duration // reply time since the phase started
}

func (o outcome) ok() bool { return o.err == nil && o.resp != nil && o.resp.OK }

// runBuyOpen is the buy-open workload: an open loop of buys and quotes
// at a fixed rate over two pipelined connections to a plain daemon.
func runBuyOpen(cfg *config, traced bool, seconds float64, reps int) (*pass, error) {
	p := newPass("buy-open")
	customers := make([]string, openLoopCustomers)
	for i := range customers {
		customers[i] = fmt.Sprintf("c%d", i)
	}
	s, err := setUp(cfg, p, reps, func(int) (*session, error) {
		return startSession(cfg, traced, priceList, openLoopConns, true, "", customers, startBalance)
	})
	if err != nil {
		return nil, err
	}
	stream := openLoopStream(s.in, cfg.seed, openLoopRate, int(openLoopRate*seconds), openLoopCustomers)
	var before scrape
	if traced {
		if before, err = s.d.scrape(); err != nil {
			_ = s.close()
			return nil, err
		}
	}

	results := make([]outcome, len(stream))
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := range stream {
		due := t0.Add(stream[i].Due)
		if wait := time.Until(due); wait > 0 {
			// The runtime's timers have millisecond resolution, so a
			// send lands up to a millisecond after its due time; the
			// lateness is measured and counted in every latency. A
			// nanosleep system call wakes sooner but parks a P with
			// the sleeping thread, and runs then spread far more.
			time.Sleep(wait)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int, due, sent time.Time) {
			defer wg.Done()
			resp, err := s.clients[i%len(s.clients)].Do(stream[i].Req)
			now := time.Now()
			results[i] = outcome{resp: resp, err: err, lat: now.Sub(due), late: sent.Sub(due), finished: now.Sub(t0)}
		}(i, due, sent)
	}
	wg.Wait()

	if traced {
		after, err := s.d.scrape()
		if err != nil {
			_ = s.close()
			return nil, err
		}
		p.scraped = after
		reqs := float64(len(stream))
		bytes := after.sum("privrange_market_bytes_read_total") + after.sum("privrange_market_bytes_written_total") -
			before.sum("privrange_market_bytes_read_total") - before.sum("privrange_market_bytes_written_total")
		p.layer["market.bytes_per_req"] = bytes / reqs
		p.layer["market.shed_frac"] = (after.sum("privrange_market_shed_total") - before.sum("privrange_market_shed_total")) / reqs
	}
	if p.rssMB, err = s.d.peakRSSMB(); err != nil {
		_ = s.close()
		return nil, err
	}

	c := newChecker(cfg.corrupt)
	ids := s.warmReceipts(c, priceList)
	for i, o := range results {
		req := stream[i].Req
		p.attempted++
		p.late = append(p.late, ms(o.late))
		p.elapsed = max(p.elapsed, o.finished)
		if !o.ok() {
			p.failed++
			continue
		}
		if req.Op == "quote" {
			p.support = append(p.support, ms(o.lat))
			p.quoteRTT = append(p.quoteRTT, ms(o.lat-o.late))
			if want := s.quotes[quoteKey(req.Dataset, priceList[stream[i].Tier])]; o.resp.Price != want {
				c.failf("quote %s returned %v, set-up quoted %v", req.Dataset, o.resp.Price, want)
			}
			continue
		}
		p.release = append(p.release, ms(o.lat))
		p.eps = append(p.eps, o.resp.EpsilonPrime)
		ids = append(ids, s.sale(c, req, o.resp))
	}
	c.receipts(ids)
	if late := quantile(p.late, 0.99); late > maxLateMS {
		c.failf("generator fell behind: p99 send lateness %.2f ms > %d ms", late, maxLateMS)
	}
	c.finish()
	p.problems = c.problems
	p.stream, p.inputs = stream, s.in
	return p, s.close()
}

// runTradeDurable is the trade-durable workload: two customers, each on
// its own serial connection, buying and depositing in a closed loop
// against a daemon that journals every trade to its WAL. After the
// phase the daemon is stopped with SIGTERM and restarted on the same
// directory, and the recovered books must equal the acknowledged ones.
func runTradeDurable(cfg *config, traced bool, seconds float64, reps int) (*pass, error) {
	p := newPass("trade-durable")
	customers := []string{"d0", "d1"}
	tiers := []tier{durableTier}
	s, err := setUp(cfg, p, reps, func(rep int) (*session, error) {
		dir := filepath.Join(cfg.runDir, fmt.Sprintf("wal-%d", rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		return startSession(cfg, traced, tiers, durableCustomers, false, dir, customers, 0)
	})
	if err != nil {
		return nil, err
	}
	var before scrape
	if traced {
		if before, err = s.d.scrape(); err != nil {
			_ = s.close()
			return nil, err
		}
	}
	balances := map[string]float64{}
	for _, cust := range customers {
		if balances[cust], err = s.clients[0].Balance(cust); err != nil {
			_ = s.close()
			return nil, err
		}
	}
	// Fixed work, like ingest-batch: the daemon's books (and so its
	// memory) grow with every acknowledged operation.
	perCustomer := int(math.Round(durableOpsPerSecond * seconds))
	streams := make([][]op, len(customers))
	results := make([][]outcome, len(customers))
	unit := 0.0
	for _, q := range s.quotes {
		unit = max(unit, q)
	}
	for i, cust := range customers {
		streams[i] = closedLoopStream(s.in, cfg.seed, cust, i, perCustomer)
		for j := range streams[i] {
			if streams[i][j].Req.Op == "deposit" {
				streams[i][j].Req.Amount *= unit
			}
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range customers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, o := range streams[i] {
				sent := time.Now()
				resp, err := s.clients[i].Do(o.Req)
				now := time.Now()
				results[i] = append(results[i], outcome{resp: resp, err: err, lat: now.Sub(sent), finished: now.Sub(t0)})
			}
		}(i)
	}
	wg.Wait()

	c := newChecker(cfg.corrupt)
	ids := s.warmReceipts(c, tiers)
	acked := 0
	for i, cust := range customers {
		var last int64
		for j, o := range results[i] {
			req := streams[i][j].Req
			p.attempted++
			p.elapsed = max(p.elapsed, o.finished)
			if !o.ok() {
				p.failed++
				continue
			}
			acked++
			if req.Op == "deposit" {
				p.support = append(p.support, ms(o.lat))
				balances[cust] += req.Amount
				if o.resp.Balance != balances[cust] {
					c.failf("%s balance after deposit %v, oracle %v", cust, o.resp.Balance, balances[cust])
				}
				continue
			}
			p.release = append(p.release, ms(o.lat))
			p.eps = append(p.eps, o.resp.EpsilonPrime)
			balances[cust] -= o.resp.Price
			id := s.sale(c, req, o.resp)
			if id <= last {
				c.failf("%s receipt %d after %d: ids not increasing", cust, id, last)
			}
			last = id
			ids = append(ids, id)
		}
	}
	c.receipts(ids)

	if traced {
		after, err := s.d.scrape()
		if err != nil {
			_ = s.close()
			return nil, err
		}
		delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
		p.layer["wal.fsyncs_per_op"] = delta("privrange_market_wal_fsyncs_total") / float64(acked)
		// Appended bytes, not directory growth: compaction shrinks the
		// directory mid-phase.
		p.layer["wal.bytes_per_op"] = delta("privrange_market_wal_bytes_total") / float64(acked)
		p.layer["wal.compactions"] = delta("privrange_market_wal_compactions_total")
	}
	if p.rssMB, err = s.d.peakRSSMB(); err != nil {
		_ = s.close()
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	// Restart on the same WAL directory: the recovered books must equal
	// the oracle built from acknowledged operations.
	t1 := time.Now()
	d, err := startDaemon(cfg.daemon, "-addr", "127.0.0.1:0", "-prepaid", "-data", s.in.csv, "-wal", s.walDir)
	if err != nil {
		return nil, fmt.Errorf("restart on %s: %w", s.walDir, err)
	}
	cl, err := market.Dial(d.addr)
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	if _, err := cl.Catalog(); err != nil {
		cl.Close()
		_ = d.stop()
		return nil, err
	}
	p.layer["wal.recovery_s"] = time.Since(t1).Seconds()
	for _, cust := range customers {
		got, err := cl.Balance(cust)
		if err != nil {
			c.failf("balance of %s after restart: %v", cust, err)
		} else if got != balances[cust] {
			c.failf("%s recovered balance %v, oracle %v", cust, got, balances[cust])
		}
	}
	name := s.in.names[0]
	resp, err := cl.Buy(market.Request{Dataset: name, Customer: customers[0], L: s.in.lo[name], U: s.in.hi[name], Alpha: durableTier.Alpha, Delta: durableTier.Delta})
	if err != nil {
		c.failf("buy after restart: %v", err)
	} else if resp.Receipt == nil || resp.Receipt.ID != int64(len(ids)+1) {
		c.failf("first receipt after restart is not %d: the recovered purchase count differs", len(ids)+1)
	}
	cl.Close()
	if err := d.stop(); err != nil {
		return nil, err
	}
	c.finish()
	p.problems = c.problems
	return p, nil
}
