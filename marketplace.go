package privrange

import (
	"fmt"
	"sync"
	"time"

	"privrange/internal/core"
	"privrange/internal/dp"
	"privrange/internal/iot"
	"privrange/internal/market"
	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

// Tariff selects one of the library's arbitrage-avoiding pricing
// functions (§IV of the paper). Prices are ψ(V) of the answer variance
// V(α, δ) = (αn)²(1−δ).
type Tariff struct {
	// Base is a flat per-query fee (may be zero).
	Base float64
	// C scales the 1/V component; must be positive. The neutral tariff
	// π = C/V is the arbitrage-avoidance boundary: set Base > 0 to make
	// every averaging attack strictly unprofitable.
	C float64
}

func (t Tariff) internal() (pricing.Function, error) {
	if t.C <= 0 {
		return nil, fmt.Errorf("privrange: tariff C %v must be positive", t.C)
	}
	if t.Base < 0 {
		return nil, fmt.Errorf("privrange: tariff base %v must be non-negative", t.Base)
	}
	if t.Base == 0 {
		return pricing.InverseVariance{C: t.C}, nil
	}
	return pricing.BaseFeePlusInverse{Base: t.Base, C: t.C}, nil
}

// Quote is a priced offer for an accuracy level.
type Quote struct {
	// Price is what the broker charges for one answer at this accuracy.
	Price float64
	// Variance is the answer variance the price is derived from.
	Variance float64
}

// PurchaseResult is a completed marketplace transaction.
type PurchaseResult struct {
	// Value is the private answer (raw, unbiased — may fall outside
	// [0, n]); Clamped truncates it for display.
	Value   float64
	Clamped float64
	// Price is the amount charged.
	Price float64
	// ReceiptID identifies the sale in the broker's ledger.
	ReceiptID int64
	// EpsilonPrime is the effective privacy budget the answer consumed.
	EpsilonPrime float64
}

// Marketplace is a multi-dataset data-trading broker: it registers
// datasets, quotes and sells private answers under an arbitrage-avoiding
// tariff, and can serve remote consumers over TCP.
type Marketplace struct {
	broker  *market.Broker
	wallets *market.Wallets
	// coalescer, when non-nil, folds concurrent remote buys into batch
	// sales (see EnableCoalescing). Guarded by teleMu for enable/close.
	coalescer *market.Coalescer

	// teleMu guards the registry and the dataset handle map used to
	// attach telemetry to datasets added before or after
	// EnableTelemetry.
	teleMu   sync.Mutex
	registry *telemetry.Registry
	handles  map[string]datasetHandles
}

// datasetHandles keeps the per-dataset components the facade built in
// AddDataset so late telemetry enablement can instrument them.
type datasetHandles struct {
	engine     *core.Engine
	network    *iot.Network
	accountant *dp.Accountant
}

// NewMarketplace opens a broker with the given tariff. The tariff is
// audited for arbitrage-avoidance; an exploitable one is refused.
func NewMarketplace(t Tariff) (*Marketplace, error) {
	fn, err := t.internal()
	if err != nil {
		return nil, err
	}
	broker, err := market.NewBroker(fn)
	if err != nil {
		return nil, err
	}
	return &Marketplace{broker: broker, handles: make(map[string]datasetHandles)}, nil
}

// EnableTelemetry turns on the marketplace's metrics registry and
// instruments every layer: the broker (sales, protocol, transport),
// each dataset's query engine (latency, outcomes, traces), its IoT
// network (rounds, coverage, cost, breaker events) and its privacy
// accountant (ε spend). Datasets added later are instrumented on
// registration. Idempotent; ServeOps calls it implicitly. Everything
// exported lives outside the privacy boundary — released aggregates
// and operational counts only (see DESIGN.md §10).
func (m *Marketplace) EnableTelemetry() {
	m.enableTelemetry()
}

func (m *Marketplace) enableTelemetry() *telemetry.Registry {
	m.teleMu.Lock()
	defer m.teleMu.Unlock()
	if m.registry != nil {
		return m.registry
	}
	m.registry = telemetry.NewRegistry()
	m.broker.SetTelemetry(market.NewMetrics(m.registry))
	for name, h := range m.handles {
		m.instrumentLocked(name, h)
	}
	return m.registry
}

// instrumentLocked attaches one dataset's components to the registry.
// The dataset name is catalog metadata (public by construction), so it
// is a safe label value. Callers hold teleMu with registry non-nil.
func (m *Marketplace) instrumentLocked(name string, h datasetHandles) {
	label := telemetry.L("dataset", name)
	h.engine.SetTelemetry(core.NewMetrics(m.registry, label))
	h.network.SetTelemetry(iot.NewMetrics(m.registry, label))
	h.accountant.Instrument(
		m.registry.Gauge("privrange_dp_epsilon_spent", "cumulative effective privacy budget released", label),
		m.registry.Gauge("privrange_dp_epsilon_remaining", "budget left before the dataset cap (absent while uncapped)", label),
		m.registry.Counter("privrange_dp_releases_total", "answers charged to the accountant", label),
	)
}

// EnableTracing turns on head-sampled distributed tracing: every n-th
// request without a wire trace context starts a fresh trace (the
// sampling decision is a deterministic counter — no randomness, no
// clock — so tracing can never perturb released answers), and sampled
// requests emit spans for every stage — handler, coalesced batch,
// engine phases, WAL append/fsync — retrievable as JSON from the ops
// endpoint's /traces route. Requests arriving with a sampled wire
// context (market.WithTracing clients) are always traced regardless of
// n. n <= 0 disables head sampling; wire-joined traces
// still record. Enables telemetry if needed. Idempotent.
func (m *Marketplace) EnableTracing(sampleN int) {
	m.enableTelemetry().SetTraceSampling(sampleN)
}

// SLO declares one service-level objective over buys.
type SLO struct {
	// Name labels the objective's series, e.g. "buy_latency".
	// Defaults to "buy".
	Name string
	// Target is the required good-request fraction, e.g. 0.99.
	Target float64
	// Threshold bounds a good buy's end-to-end latency; zero declares a
	// pure availability objective (any completed sale is good).
	Threshold time.Duration
}

// DeclareBuySLO scores every buy (sold or rejected) against the
// objective and exports multi-window error-budget burn-rate gauges
// (privrange_slo_burn_rate{slo,window}, windows 5m and 1h) plus
// lifetime good/total counters on the ops endpoint. Enables telemetry
// if needed. Declaring again replaces the scored objective.
func (m *Marketplace) DeclareBuySLO(s SLO) {
	reg := m.enableTelemetry()
	name := s.Name
	if name == "" {
		name = "buy"
	}
	obj := reg.SLO(telemetry.Objective{Name: name, Target: s.Target, Threshold: s.Threshold})
	m.broker.Telemetry().SetBuySLO(obj)
}

// OpsServer is a running operational HTTP endpoint: Prometheus metrics
// at /metrics, a JSON state snapshot at /snapshot and pprof under
// /debug/pprof/. It is separate from the trading TCP endpoint — bind
// it to an operator-only address.
type OpsServer struct {
	srv *telemetry.OpsServer
}

// ServeOps starts the operational endpoint on addr (use "127.0.0.1:0"
// for an ephemeral port), enabling telemetry first if needed.
func (m *Marketplace) ServeOps(addr string) (*OpsServer, error) {
	reg := m.enableTelemetry()
	srv, err := telemetry.Serve(addr, reg)
	if err != nil {
		return nil, err
	}
	return &OpsServer{srv: srv}, nil
}

// Addr returns the ops endpoint's bound address.
func (s *OpsServer) Addr() string { return s.srv.Addr() }

// Close shuts the ops endpoint down.
func (s *OpsServer) Close() error { return s.srv.Close() }

// AddDataset registers readings for sale under the given name, spread
// across a simulated IoT deployment per opt.
func (m *Marketplace) AddDataset(name string, values []float64, opt Options) error {
	if len(values) == 0 {
		return fmt.Errorf("privrange: dataset %q is empty", name)
	}
	nodes := opt.Nodes
	if nodes == 0 {
		nodes = 16
	}
	if nodes < 1 || nodes > len(values) {
		return fmt.Errorf("privrange: node count %d outside [1, %d]", nodes, len(values))
	}
	topo := iot.Flat
	if opt.Tree {
		topo = iot.Tree
	}
	network, err := iot.New(partition(values, nodes), iot.Config{Seed: opt.Seed, Topology: topo, Faults: opt.Faults})
	if err != nil {
		return err
	}
	accountant, err := dp.NewAccountant(opt.TotalBudget)
	if err != nil {
		return err
	}
	policy := core.Strict
	if opt.BestEffort {
		policy = core.BestEffort
	}
	engine, err := core.New(network,
		core.WithSeed(opt.Seed+1),
		core.WithAccountant(accountant),
		core.WithAnswerCache(opt.CacheAnswers),
		core.WithDegradationPolicy(policy),
	)
	if err != nil {
		return err
	}
	if err := m.broker.Register(name, engine, len(values), nodes); err != nil {
		return err
	}
	m.teleMu.Lock()
	defer m.teleMu.Unlock()
	h := datasetHandles{engine: engine, network: network, accountant: accountant}
	m.handles[name] = h
	if m.registry != nil {
		m.instrumentLocked(name, h)
	}
	return nil
}

// Quote prices one answer at the given accuracy on a dataset.
func (m *Marketplace) Quote(dataset string, acc Accuracy) (Quote, error) {
	price, variance, err := m.broker.Quote(dataset, acc.internal())
	if err != nil {
		return Quote{}, err
	}
	return Quote{Price: price, Variance: variance}, nil
}

// Buy sells one private (α, δ)-range-counting answer over [l, u] on the
// dataset to the named customer and records the sale.
func (m *Marketplace) Buy(customer, dataset string, l, u float64, acc Accuracy) (*PurchaseResult, error) {
	resp, err := m.broker.Buy(market.Request{
		Dataset:  dataset,
		Customer: customer,
		L:        l,
		U:        u,
		Alpha:    acc.Alpha,
		Delta:    acc.Delta,
	})
	if err != nil {
		return nil, err
	}
	result := &PurchaseResult{
		Value:        resp.Value,
		Clamped:      resp.Clamped,
		Price:        resp.Price,
		EpsilonPrime: resp.EpsilonPrime,
	}
	if resp.Receipt != nil {
		result.ReceiptID = resp.Receipt.ID
	}
	return result, nil
}

// EnablePrepaid switches the marketplace to prepaid customer accounts:
// every Buy (local or remote) debits the customer's balance first and
// fails on insufficient funds. Idempotent.
func (m *Marketplace) EnablePrepaid() {
	if m.wallets == nil {
		m.wallets = &market.Wallets{}
		m.broker.AttachWallets(m.wallets)
	}
}

// Deposit credits a prepaid customer account. It returns an error when
// prepaid mode is not enabled. With durability on, the grant is
// journaled and fsynced before this returns.
func (m *Marketplace) Deposit(customer string, amount float64) error {
	if m.wallets == nil {
		return fmt.Errorf("privrange: marketplace runs in invoice mode; call EnablePrepaid first")
	}
	return m.broker.Deposit(customer, amount)
}

// Balance returns a prepaid customer's balance (0 in invoice mode).
func (m *Marketplace) Balance(customer string) float64 {
	if m.wallets == nil {
		return 0
	}
	return m.wallets.Balance(customer)
}

// SuspiciousPattern reports one repeated-purchase pattern from the
// broker's ledger audit (the observable footprint of an averaging
// attack).
type SuspiciousPattern struct {
	Customer  string
	Dataset   string
	L, U      float64
	Alpha     float64
	Delta     float64
	Purchases int
	TotalPaid float64
}

// Audit scans the ledger for customers repeating the same purchase three
// or more times.
func (m *Marketplace) Audit() []SuspiciousPattern {
	sus := m.broker.Audit()
	out := make([]SuspiciousPattern, len(sus))
	for i, s := range sus {
		out[i] = SuspiciousPattern{
			Customer:  s.Customer,
			Dataset:   s.Dataset,
			L:         s.L,
			U:         s.U,
			Alpha:     s.Alpha,
			Delta:     s.Delta,
			Purchases: s.Count,
			TotalPaid: s.TotalPaid,
		}
	}
	return out
}

// PrivacySpent returns the cumulative effective privacy budget released
// for one dataset across all sales.
func (m *Marketplace) PrivacySpent(dataset string) float64 {
	return m.broker.Ledger().PrivacySpent(dataset)
}

// SetCustomerPrivacyCap bounds the cumulative effective privacy budget
// any single customer may extract from any single dataset. Zero removes
// the cap.
func (m *Marketplace) SetCustomerPrivacyCap(epsilon float64) error {
	return m.broker.SetCustomerPrivacyCap(epsilon)
}

// EnableDurability turns on crash-consistent accounting: every wallet
// deposit, sale debit, ε spend and receipt is appended to a
// write-ahead log under dir and fsynced (group commit) before the
// operation is acknowledged, and the log periodically compacts into an
// atomically-replaced snapshot. Any state a previous incarnation left
// in dir is recovered first — money, receipts and released ε come back
// exactly once, even after a crash mid-sale. Call it on a marketplace
// that has not sold anything yet, after EnablePrepaid (recovered
// balances need wallets) and before AddDataset (each dataset's Σε′
// restores as it registers).
func (m *Marketplace) EnableDurability(dir string) error {
	return m.broker.EnableDurability(dir)
}

// CloseDurability compacts the log into the snapshot and closes the
// WAL; call on clean shutdown so the next boot recovers from the
// snapshot alone. The marketplace refuses further mutations afterwards.
func (m *Marketplace) CloseDurability() error { return m.broker.CloseDurability() }

// Revenue returns the broker's total take so far.
func (m *Marketplace) Revenue() float64 { return m.broker.Ledger().Revenue() }

// Purchases returns how many sales the ledger holds.
func (m *Marketplace) Purchases() int { return m.broker.Ledger().Purchases() }

// SpentBy returns one customer's total spend.
func (m *Marketplace) SpentBy(customer string) float64 {
	return m.broker.Ledger().SpentBy(customer)
}

// CoalesceConfig tunes EnableCoalescing; zero values pick the
// defaults (1ms window, 64-buy batches).
type CoalesceConfig struct {
	// Window is the longest a buy may wait for companions before its
	// batch executes.
	Window time.Duration
	// MaxBatch seals a batch early once this many buys joined.
	MaxBatch int
}

// EnableCoalescing folds concurrent remote buys for the same dataset
// and accuracy into one batch sale: each buy waits at most the window,
// then one estimation pass answers the whole group. Without coalescing
// every buy is a batch sale of one, so released values, receipts,
// balances and ε accounting are bit-for-bit the same either way — the
// trade is purely latency (≤ window) for throughput. Idempotent per
// marketplace; call DisableCoalescing on shutdown to drain the batching
// stage.
func (m *Marketplace) EnableCoalescing(cfg CoalesceConfig) {
	m.teleMu.Lock()
	defer m.teleMu.Unlock()
	if m.coalescer != nil {
		return
	}
	m.coalescer = m.broker.EnableCoalescing(market.CoalesceConfig{
		Window:   cfg.Window,
		MaxBatch: cfg.MaxBatch,
	})
}

// DisableCoalescing drains and stops the batching stage; buys in
// flight settle first, later buys settle alone as batch sales of one.
func (m *Marketplace) DisableCoalescing() {
	m.teleMu.Lock()
	co := m.coalescer
	m.coalescer = nil
	m.teleMu.Unlock()
	if co != nil {
		co.Close()
	}
}

// MarketServer is a running TCP endpoint for a Marketplace.
type MarketServer struct {
	srv *market.Server
}

// ServeConfig tunes ServeWith; zero values pick the transport
// defaults (2min idle timeout, 64-deep pipeline window, 1024 admitted
// requests module-wide).
type ServeConfig struct {
	// IdleTimeout cuts connections that go silent (or stop draining
	// responses) for this long. Negative disables the deadline.
	IdleTimeout time.Duration
	// PipelineDepth bounds requests in flight per connection; a client
	// pipelining past it is throttled by TCP flow control.
	PipelineDepth int
	// MaxInFlight caps admitted requests across all connections;
	// excess requests are refused with a retryable protocol error.
	// Negative disables admission control.
	MaxInFlight int
}

// Serve exposes the marketplace on a TCP address (use "127.0.0.1:0" for
// an ephemeral port) with default transport settings. The protocol is
// newline-delimited JSON; see internal/market for the message schema
// and a ready-made client.
func (m *Marketplace) Serve(addr string) (*MarketServer, error) {
	return m.ServeWith(addr, ServeConfig{})
}

// ServeWith exposes the marketplace on a TCP address with explicit
// transport settings (pipelining window, admission cap, idle timeout).
func (m *Marketplace) ServeWith(addr string, cfg ServeConfig) (*MarketServer, error) {
	var opts []market.ServerOption
	if cfg.IdleTimeout != 0 {
		opts = append(opts, market.WithIdleTimeout(cfg.IdleTimeout))
	}
	if cfg.PipelineDepth > 0 {
		opts = append(opts, market.WithPipelineDepth(cfg.PipelineDepth))
	}
	if cfg.MaxInFlight != 0 {
		opts = append(opts, market.WithMaxInFlight(cfg.MaxInFlight))
	}
	srv, err := market.Serve(m.broker, addr, opts...)
	if err != nil {
		return nil, err
	}
	return &MarketServer{srv: srv}, nil
}

// Addr returns the server's bound address.
func (s *MarketServer) Addr() string { return s.srv.Addr() }

// Close shuts the server down and drains its connections.
func (s *MarketServer) Close() error { return s.srv.Close() }
