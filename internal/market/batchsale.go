package market

import (
	"fmt"

	"privrange/internal/estimator"
	"privrange/internal/telemetry"
)

// saleResult is one buy's settlement from a batch sale: the response
// the buy acknowledges, or the error it fails with.
type saleResult struct {
	resp  *Response
	price float64
	err   error
}

// sellBatch settles single-query buys against one dataset at one
// accuracy level as one batch sale. It is the broker's only sale path:
// Buy is a batch of one, and the coalescer folds concurrent buys into
// larger batches. The outcome is bit-for-bit indistinguishable from
// selling the same buys one at a time in slice order: each sale gets its
// own sale id, debit, WAL records, receipt (ids assigned in slice order),
// cap check against the ledger as of its predecessors, and exactly one
// noise draw and one accountant charge via core.AnswerBatchSerial — only
// the estimation kernel is shared and the group-commit fsync covers the
// whole batch instead of one sale.
//
// traces, when non-nil, carries one per-buy trace begun by the caller
// (Buy joins the wire context; the coalescer starts them at enqueue so
// queue wait is part of the recorded latency); sellBatch closes every
// trace via finishBuy.
func (b *Broker) sellBatch(reqs []Request, traces []*telemetry.Trace) []saleResult {
	m := b.tele.Load()
	out := make([]saleResult, len(reqs))
	if traces == nil {
		traces = make([]*telemetry.Trace, len(reqs))
	}
	for i := range traces {
		if traces[i] == nil {
			traces[i] = &telemetry.Trace{}
			m.begin(traces[i], "market.buy")
		}
	}
	if q, ok := b.priceBatch(reqs, traces, out); ok {
		b.settleBatch(reqs, traces, out, q)
	}
	for i := range out {
		m.finishBuy(traces[i], out[i].err == nil, out[i].price)
	}
	b.maybeCompact()
	return out
}

// batchQuote is a priced batch: the dataset it sells from, the one
// price every sale in it pays, the index of its first valid request,
// and which requests are still alive.
type batchQuote struct {
	ds              *brokerDataset
	price, variance float64
	first           int
	alive           []bool
}

// priceBatch validates and prices a batch, per sale in order, and
// reports whether any sale is left to settle. The batch shares one
// dataset and accuracy (the coalescer keys on them), so the quote is
// computed once — the tariff is deterministic, every sale sold alone
// would have priced identically. It is kept apart from settleBatch so
// the price phase stays small: a sale handled on a fresh goroutine
// grows its stack on entering settleBatch's large frame, and that copy
// belongs to settlement, not to pricing.
func (b *Broker) priceBatch(reqs []Request, traces []*telemetry.Trace, out []saleResult) (batchQuote, bool) {
	alive := make([]bool, len(reqs))
	anyAlive := false
	for i := range reqs {
		reqs[i].Op = "buy"
		if err := reqs[i].Validate(); err != nil {
			out[i].err = err
			continue
		}
		alive[i] = true
		anyAlive = true
	}
	if !anyAlive {
		return batchQuote{}, false
	}
	first := -1
	for i := range reqs {
		if alive[i] {
			first = i
			break
		}
	}
	ds, err := b.dataset(reqs[first].Dataset)
	if err != nil {
		failAlive(out, alive, err)
		return batchQuote{}, false
	}
	price, variance, err := b.Quote(reqs[first].Dataset, reqs[first].Accuracy())
	for i := range reqs {
		if alive[i] {
			traces[i].Mark("price")
		}
	}
	if err != nil {
		failAlive(out, alive, err)
		return batchQuote{}, false
	}
	return batchQuote{ds: ds, price: price, variance: variance, first: first, alive: alive}, true
}

// settleBatch runs a priced batch's debit→answer→record→fsync sequence:
// per-sale debits, one engine release for every debited sale, per-sale
// cap check and receipt, and one group-commit fsync before any ack.
func (b *Broker) settleBatch(reqs []Request, traces []*telemetry.Trace, out []saleResult, q batchQuote) {
	ds, price, variance, first, alive := q.ds, q.price, q.variance, q.first, q.alive
	// The debit→record span holds the commit lock shared: concurrent
	// sales interleave freely, but a compaction snapshot waits for the
	// whole batch and never captures a half-settled sale.
	b.commitMu.RLock()
	defer b.commitMu.RUnlock()
	wallets := b.walletStore()
	sales := make([]uint64, len(reqs))
	for i := range reqs {
		if !alive[i] {
			continue
		}
		sales[i] = b.nextSale()
		if wallets != nil {
			if derr := wallets.debit(reqs[i].Customer, price); derr != nil {
				out[i].err = derr
				alive[i] = false
				continue
			}
			if jerr := b.journal(WALRecord{Op: opDebit, Sale: sales[i], Customer: reqs[i].Customer, Amount: price}, telemetry.SpanContext{}); jerr != nil {
				wallets.refund(reqs[i].Customer, price)
				out[i].err = jerr
				alive[i] = false
				continue
			}
		}
		traces[i].Mark("debit")
	}
	queries, slots := aliveQueries(reqs, alive)
	if len(queries) == 0 {
		return
	}
	// A sale of one owns its engine and commit work: the engine's and
	// the group commit's spans hang under its market.buy span. Work
	// folded from two or more sales belongs to no single sale, so it runs
	// as its own market.batch_sale span (own trace) linking every sampled
	// folded sale's handler span. batchTr stays un-begun, and so inert,
	// for a sale of one.
	var (
		batchTr telemetry.Trace
		sc      telemetry.SpanContext
	)
	if len(reqs) == 1 {
		sc = traces[0].SpanCtx()
	} else {
		m := b.tele.Load()
		m.beginBatchSpan(&batchTr, traces, slots)
		defer m.finishBatchSpan(&batchTr, len(slots))
		batchTr.Annotate("dataset", reqs[first].Dataset)
		sc = batchTr.SpanCtx()
	}
	// A caching engine can re-serve a fresh release to any later buyer
	// the moment it stores it, but the release's spend is journaled with
	// the sale that charged for it, and replay applies that spend only
	// once that sale's receipt is durable. A cache hit committing in
	// between would leave crash states whose receipts hand out a release
	// whose spend recovery drops. So on a durable broker over a caching
	// engine, the span from the engine call to the batch's last record
	// append is exclusive per dataset: every log prefix holding a hit's
	// receipt also holds the receipt (or spend-withheld record) of the
	// sale that charged for it. The batch's group-commit fsync runs
	// after the lock is released.
	ordered := ds.engine.CachesAnswers() && b.durableStore() != nil
	if ordered {
		ds.releaseMu.Lock()
	}
	answers, err := ds.engine.AnswerBatchSerial(queries, reqs[first].Accuracy(), sc)
	batchTr.Mark("answer")
	for bi, i := range slots {
		traces[i].Mark("answer")
		// Whole-call misuse cannot happen (the batch is non-empty), but a
		// future engine error must still settle every debited sale.
		aerr := err
		if aerr == nil {
			aerr = answers[bi].Err
		}
		if aerr != nil {
			b.rollbackSale(wallets, sales[i], reqs[i].Customer, price)
			out[i].err = aerr
			alive[i] = false
		}
	}
	// Commit, per sale in slice order: the cap check must see the
	// receipts of same-customer predecessors in this batch exactly as a
	// later sale would see its forerunners in the ledger, so cap check
	// and record interleave per sale instead of running as separate
	// phases. The computed answer is withheld (not released) when a sale
	// would push the customer's cumulative Σε′ on the dataset past the
	// cap. The dataset-wide accountant has already been charged for a
	// fresh release — conservative by design: a withheld answer still
	// consumed broker-side randomness — so withholdSale journals that
	// spend even though the sale never commits. Spends are journaled
	// only for charged releases: a cache hit is free post-processing
	// the live accountant never saw, and replaying a spend for it would
	// recover a larger Σε′ than the broker ever charged.
	synced := make([]int, 0, len(slots))
	for bi, i := range slots {
		if !alive[i] {
			continue
		}
		ans := answers[bi].Answer
		if cap := b.customerPrivacyCap(); cap > 0 {
			spent := b.ledger.PrivacySpentByCustomer(reqs[i].Customer, reqs[i].Dataset)
			if spent+ans.Plan.EpsilonPrime > cap {
				if werr := b.withholdSale(wallets, sales[i], reqs[i], price, answers[bi]); werr != nil {
					out[i].err = werr
					continue
				}
				out[i].err = fmt.Errorf("market: customer %q would exceed the per-customer privacy cap on %q (%.4f + %.4f > %.4f)",
					reqs[i].Customer, reqs[i].Dataset, spent, ans.Plan.EpsilonPrime, cap)
				continue
			}
		}
		// Receipt-id assignment and the receipt's WAL append must be one
		// critical section (see recordMu). On a journaling failure the
		// in-memory books keep the sale (they stay internally balanced)
		// but the customer gets an error and the WAL refuses all further
		// mutations — after restart, replay sees no commit record and
		// restores the customer's money.
		b.recordMu.Lock()
		receipt := b.ledger.Record(Receipt{
			Customer:     reqs[i].Customer,
			Dataset:      reqs[i].Dataset,
			L:            reqs[i].L,
			U:            reqs[i].U,
			Alpha:        reqs[i].Alpha,
			Delta:        reqs[i].Delta,
			Variance:     variance,
			Price:        price,
			EpsilonPrime: ans.Plan.EpsilonPrime,
			Coverage:     ans.Coverage,
		})
		// The receipt is the sale's commit record; its append traces
		// under the sale's own span.
		var spendErr error
		if answers[bi].Charged {
			spendErr = b.journal(WALRecord{Op: opSpend, Sale: sales[i], Dataset: reqs[i].Dataset, Epsilon: ans.Plan.EpsilonPrime}, telemetry.SpanContext{})
		}
		receiptErr := b.journal(WALRecord{Op: opReceipt, Sale: sales[i], Receipt: &receipt}, traces[i].SpanCtx())
		b.recordMu.Unlock()
		traces[i].Mark("record")
		if spendErr != nil {
			out[i].err = spendErr
			continue
		}
		if receiptErr != nil {
			out[i].err = receiptErr
			continue
		}
		out[i] = saleResult{
			resp: &Response{
				OK:                true,
				Price:             price,
				Variance:          variance,
				Value:             ans.Value,
				Clamped:           ans.Clamped(),
				Receipt:           &receipt,
				EpsilonPrime:      ans.Plan.EpsilonPrime,
				Rate:              ans.Rate,
				Coverage:          ans.Coverage,
				CollectionVersion: ans.CollectionVersion,
			},
			price: price,
		}
		synced = append(synced, i)
	}
	if ordered {
		ds.releaseMu.Unlock()
	}
	batchTr.Mark("record")
	if len(synced) == 0 {
		return
	}
	// One group-commit fsync makes every sale in the batch durable
	// before any is acknowledged. The journaled records are identical
	// to selling one at a time; only the fsync count differs, and an
	// fsync is not a record — replay cannot tell the difference.
	serr := b.journalSync(sc)
	for _, i := range synced {
		if serr != nil {
			out[i] = saleResult{err: serr}
			continue
		}
		if wallets != nil {
			wallets.resolve(reqs[i].Customer, price)
		}
		traces[i].Mark("fsync")
	}
	batchTr.Mark("fsync")
}

// failAlive fails every still-alive sale with one shared error.
func failAlive(out []saleResult, alive []bool, err error) {
	for i := range out {
		if alive[i] {
			out[i].err = err
		}
	}
}

// aliveQueries extracts the queries of still-alive sales plus the slot
// mapping from batch position back to request index.
func aliveQueries(reqs []Request, alive []bool) ([]estimator.Query, []int) {
	var queries []estimator.Query
	var slots []int
	for i := range reqs {
		if alive[i] {
			queries = append(queries, reqs[i].Query())
			slots = append(slots, i)
		}
	}
	return queries, slots
}
