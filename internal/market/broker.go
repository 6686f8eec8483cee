package market

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/estimator"
	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

// Broker sells private range-counting answers over one or more registered
// datasets, charging an arbitrage-avoiding tariff and recording every sale
// in the ledger. Broker is safe for concurrent use.
type Broker struct {
	mu       sync.Mutex
	tariff   pricing.Function
	ledger   *Ledger
	datasets map[string]*brokerDataset
	// wallets, when non-nil, switches the broker to prepaid mode: Buy
	// debits the customer before answering and refunds on failure.
	wallets *Wallets
	// customerCap bounds Σε′ per (customer, dataset); 0 means uncapped.
	customerCap float64
	// commitMu linearizes state capture against sales: every mutating
	// operation (a sale's debit→record span, a deposit) holds it shared,
	// and WAL compaction holds it exclusively — so a captured snapshot
	// can never see a debit whose receipt has not landed yet (the
	// torn-snapshot bug).
	commitMu sync.RWMutex
	// recordMu makes receipt-id assignment and the receipt's WAL append
	// one critical section. Concurrent sales hold commitMu only in
	// shared mode, so without this lock two sales could journal their
	// receipts out of id order and a torn tail could cut an id-prefix
	// instead of an id-suffix. Replay also tolerates out-of-order
	// receipts (logs written by older brokers), but keeping the log in
	// id order preserves the gapless-suffix truncation story.
	recordMu sync.Mutex
	// durable, when non-nil, write-ahead-logs every mutation before it
	// is acknowledged (see wal.go / recover.go). Guarded by mu.
	durable *durability
	// restored stashes per-dataset accountant state recovered from disk
	// until the dataset registers its engine. Guarded by mu.
	restored map[string]dp.State
	// tele holds the optional marketplace metrics (atomic so the ops
	// endpoint can attach them after the broker opened shop without
	// racing in-flight sales); nil means record nothing.
	tele atomic.Pointer[Metrics]
	// coal, when non-nil, folds concurrent protocol buys into one batch
	// sale (see coalesce.go); nil settles each buy as a batch of one.
	coal atomic.Pointer[Coalescer]
}

// SetTelemetry attaches marketplace metrics (nil detaches). Safe to
// call concurrently with sales.
func (b *Broker) SetTelemetry(m *Metrics) { b.tele.Store(m) }

// Telemetry returns the attached metrics (nil when detached); the
// transport server shares them for connection accounting.
func (b *Broker) Telemetry() *Metrics { return b.tele.Load() }

func (b *Broker) walletStore() *Wallets {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wallets
}

func (b *Broker) durableStore() *durability {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.durable
}

// journal appends one mutation record to the WAL. Without durability it
// is a no-op: the broker then runs with the historical in-memory-only
// semantics. Under a sampled trace context the append shows up as a
// "wal.append" span.
func (b *Broker) journal(r WALRecord, sc telemetry.SpanContext) error {
	d := b.durableStore()
	if d == nil {
		return nil
	}
	_, err := d.wal.AppendCtx(r, sc)
	return err
}

// journalSync makes everything journaled so far durable (group-commit
// fsync). Mutating operations call it exactly once, after their last
// record and before acknowledging the customer. Under a sampled trace
// context the fsync shows up as a "wal.fsync" span (its duration may
// cover records of other sales — that is the group commit, faithfully
// attributed).
func (b *Broker) journalSync(sc telemetry.SpanContext) error {
	d := b.durableStore()
	if d == nil {
		return nil
	}
	return d.wal.SyncCtx(sc)
}

// nextSale issues a process-unique sale id linking one sale's WAL
// records. Zero means "no durability" and is never issued.
func (b *Broker) nextSale() uint64 {
	d := b.durableStore()
	if d == nil {
		return 0
	}
	return d.sales.Add(1)
}

type brokerDataset struct {
	engine *core.Engine
	model  pricing.VarianceModel
	n      int
	nodes  int
	// releaseMu spans a durable sale's engine release and its record
	// appends when the engine caches answers (see settleBatch).
	releaseMu sync.Mutex
}

// NewBroker returns a broker using the given tariff. The tariff is
// checked for arbitrage-avoidance across a broad variance interval at
// construction time: a broker refuses to open shop with an exploitable
// price list.
func NewBroker(tariff pricing.Function) (*Broker, error) {
	if tariff == nil {
		return nil, fmt.Errorf("market: nil tariff")
	}
	if err := pricing.Check(tariff, 1e-3, 1e12, 4000); err != nil {
		return nil, fmt.Errorf("market: refusing exploitable tariff: %w", err)
	}
	return &Broker{
		tariff:   tariff,
		ledger:   &Ledger{},
		datasets: make(map[string]*brokerDataset),
	}, nil
}

// NewBrokerUnchecked skips the tariff audit. It exists only so the
// arbitrage experiments and examples can demonstrate a vulnerable broker;
// production callers use NewBroker.
func NewBrokerUnchecked(tariff pricing.Function) (*Broker, error) {
	if tariff == nil {
		return nil, fmt.Errorf("market: nil tariff")
	}
	return &Broker{
		tariff:   tariff,
		ledger:   &Ledger{},
		datasets: make(map[string]*brokerDataset),
	}, nil
}

// Register adds a dataset served by the given engine. n and nodes are the
// dataset's public metadata (|D| and k).
func (b *Broker) Register(name string, engine *core.Engine, n, nodes int) error {
	if name == "" {
		return fmt.Errorf("market: empty dataset name")
	}
	if engine == nil {
		return fmt.Errorf("market: nil engine for dataset %q", name)
	}
	if n < 1 || nodes < 1 {
		return fmt.Errorf("market: dataset %q needs positive n (%d) and nodes (%d)", name, n, nodes)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.datasets[name]; exists {
		return fmt.Errorf("market: dataset %q already registered", name)
	}
	// Recovered ε bookkeeping lands on the dataset's accountant as it
	// (re)registers, so Σε′ survives the restart the ledger survived.
	if state, ok := b.restored[name]; ok {
		if a := engine.Accountant(); a != nil {
			if err := a.Restore(state); err != nil {
				return fmt.Errorf("market: dataset %q: %w", name, err)
			}
			delete(b.restored, name)
		}
	}
	b.datasets[name] = &brokerDataset{
		engine: engine,
		model:  pricing.ChebyshevModel{N: n},
		n:      n,
		nodes:  nodes,
	}
	return nil
}

func (b *Broker) dataset(name string) (*brokerDataset, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ds, ok := b.datasets[name]
	if !ok {
		return nil, fmt.Errorf("market: unknown dataset %q", name)
	}
	return ds, nil
}

// Catalog lists registered datasets in name order.
func (b *Broker) Catalog() []DatasetInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	names := make([]string, 0, len(b.datasets))
	for name := range b.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		ds := b.datasets[name]
		out = append(out, DatasetInfo{Name: name, N: ds.n, Nodes: ds.nodes})
	}
	return out
}

// Quote prices an accuracy level on a dataset without selling anything.
func (b *Broker) Quote(dataset string, acc estimator.Accuracy) (price, variance float64, err error) {
	ds, err := b.dataset(dataset)
	if err != nil {
		return 0, 0, err
	}
	variance, err = ds.model.Variance(acc)
	if err != nil {
		return 0, 0, err
	}
	price, err = b.tariff.Price(variance)
	if err != nil {
		return 0, 0, err
	}
	return price, variance, nil
}

// Buy answers Λ(α, δ) on the dataset, charges the customer, and records
// the receipt. The returned response carries the private value, the
// price paid and the effective privacy budget consumed. A buy is a batch
// sale of one: it settles through sellBatch like a coalesced batch, and
// traces as one market.buy span joined to the request's wire context.
func (b *Broker) Buy(req Request) (*Response, error) {
	var tr telemetry.Trace
	b.tele.Load().beginWire(&tr, "market.buy", req.Trace)
	tr.Annotate("dataset", req.Dataset)
	r := b.sellBatch([]Request{req}, []*telemetry.Trace{&tr})[0]
	return r.resp, r.err
}

// rollbackSale undoes a sale's debit after the answer failed or was
// withheld: the in-memory refund restores the balance through the same
// float operations the debit applied, and the journaled refund record
// resolves the sale on disk so replay applies the debit/refund pair
// (net zero) instead of leaving it dangling. The sync is best-effort —
// an unsynced refund just means replay treats the sale as in-flight
// and skips the debit entirely, which yields the same balance.
func (b *Broker) rollbackSale(wallets *Wallets, sale uint64, customer string, price float64) {
	if wallets == nil {
		return
	}
	wallets.refund(customer, price)
	if err := b.journal(WALRecord{Op: opRefund, Sale: sale, Customer: customer, Amount: price}, telemetry.SpanContext{}); err != nil {
		return
	}
	b.journalSync(telemetry.SpanContext{}) //nolint:errcheck — see above: replay is refund-equivalent either way
}

// withholdSale resolves a sale whose answer was computed but withheld
// by the per-customer cap. Unlike the answer-failure rollback, a fresh
// release HAS charged the dataset accountant, so its ε spend is
// journaled as a spend-withheld record (applied unconditionally on
// replay) before the refund resolves the sale; an answer served from
// the cache charged nothing and journals no spend. Journaling failures
// surface to the caller instead of being best-effort: silently acking a
// rejection whose spend never became durable would let a restart refund
// budget the live accountant treats as spent.
func (b *Broker) withholdSale(wallets *Wallets, sale uint64, req Request, price float64, o core.BatchOutcome) error {
	if wallets != nil {
		wallets.refund(req.Customer, price)
	}
	if o.Charged {
		if err := b.journal(WALRecord{Op: opSpendHeld, Sale: sale, Dataset: req.Dataset, Epsilon: o.Answer.Plan.EpsilonPrime}, telemetry.SpanContext{}); err != nil {
			return err
		}
	}
	if wallets != nil {
		if err := b.journal(WALRecord{Op: opRefund, Sale: sale, Customer: req.Customer, Amount: price}, telemetry.SpanContext{}); err != nil {
			return err
		}
	}
	return b.journalSync(telemetry.SpanContext{})
}

// Deposit credits a prepaid customer account durably: the grant is
// journaled and fsynced before the balance moves, so a debit can never
// consume funds whose journaling later fails (the old credit-first
// order let a concurrent Buy spend an undurable grant, and the rollback
// then drove the balance negative). A crash after the fsync but before
// the credit is the usual durable-but-unacked gap: replay applies the
// grant. It fails in invoice mode (no wallets attached).
func (b *Broker) Deposit(customer string, amount float64) error {
	w := b.walletStore()
	if w == nil {
		return fmt.Errorf("market: broker runs in invoice mode (no wallets attached)")
	}
	// The credit is checked and reserved under the wallet lock before
	// the record is journaled, so a concurrent deposit's overflow check
	// counts it: two deposits that together overflow the balance cannot
	// both reach the log.
	if err := w.reserve(customer, amount); err != nil {
		return err
	}
	b.commitMu.RLock()
	err := b.journal(WALRecord{Op: opDeposit, Customer: customer, Amount: amount}, telemetry.SpanContext{})
	if err == nil {
		err = b.journalSync(telemetry.SpanContext{})
	}
	w.settle(customer, amount, err == nil)
	b.commitMu.RUnlock()
	if err == nil {
		b.maybeCompact()
	}
	return err
}

// Ledger exposes the purchase ledger.
func (b *Broker) Ledger() *Ledger { return b.ledger }

// Tariff returns the broker's pricing function.
func (b *Broker) Tariff() pricing.Function { return b.tariff }

// Handle dispatches one protocol request; transport servers call it. It
// never returns an error: failures become Response.Error so they travel
// back to the remote client.
func (b *Broker) Handle(req Request) *Response {
	m := b.tele.Load()
	if err := req.Validate(); err != nil {
		m.noteRequest(req.Op, false)
		return &Response{Error: err.Error()}
	}
	m.noteRequest(req.Op, true)
	m.noteEngineEnter()
	defer m.noteEngineExit()
	switch req.Op {
	case "catalog":
		return &Response{OK: true, Datasets: b.Catalog()}
	case "quote":
		price, variance, err := b.Quote(req.Dataset, req.Accuracy())
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Price: price, Variance: variance}
	case "buy":
		// With a coalescer attached, concurrent protocol buys fold into
		// one batch sale; without one each buy is a batch sale of one.
		// The settlement is bit-identical either way.
		if co := b.coal.Load(); co != nil {
			r := co.buy(req)
			if r.err != nil {
				return &Response{Error: r.err.Error()}
			}
			return r.resp
		}
		resp, err := b.Buy(req)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return resp
	case "deposit":
		if err := b.Deposit(req.Customer, req.Amount); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Balance: b.walletStore().Balance(req.Customer)}
	case "balance":
		w := b.walletStore()
		if w == nil {
			return &Response{Error: "market: broker runs in invoice mode (no wallets attached)"}
		}
		return &Response{OK: true, Balance: w.Balance(req.Customer)}
	case "audit":
		return &Response{OK: true, Suspicions: b.Audit()}
	default:
		return &Response{Error: fmt.Sprintf("market: unknown op %q", req.Op)}
	}
}
