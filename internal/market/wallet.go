package market

import (
	"fmt"
	"sort"
	"sync"
)

// Wallets manages prepaid customer accounts. When attached to a broker,
// every Buy debits the customer's balance and fails — before any private
// answer is computed — if funds are insufficient. Wallets is safe for
// concurrent use; its zero value is ready.
type Wallets struct {
	mu       sync.Mutex
	balances map[string]float64
	// pending holds the credit of broker deposits reserved but not yet
	// settled (their records are being journaled). The overflow check
	// counts it, so two concurrent deposits that together overflow a
	// balance cannot both reach the log.
	pending map[string]held
	// inflight holds the debits of sales not yet resolved: debited, but
	// neither refunded nor durably receipted. A refund adds such a debit
	// back, and replay skips an unresolved sale's debit, so the overflow
	// check counts these too.
	inflight map[string]held
}

// held is one customer's amounts in flight: how many operations hold
// one, and their sum.
type held struct {
	n   int
	sum float64
}

// hold adds one amount to customer's entry in *m.
func hold(m *map[string]held, customer string, amount float64) {
	if *m == nil {
		*m = make(map[string]held)
	}
	h := (*m)[customer]
	(*m)[customer] = held{n: h.n + 1, sum: h.sum + amount}
}

// release removes one amount from customer's entry in m. The last one
// deletes the entry, so float residue in sum never outlives the
// operations in flight.
func release(m map[string]held, customer string, amount float64) {
	if h := m[customer]; h.n > 1 {
		m[customer] = held{n: h.n - 1, sum: h.sum - amount}
	} else {
		delete(m, customer)
	}
}

// checkDeposit validates a grant before anything is journaled or
// credited: the broker's durable path runs it first so an invalid
// grant is rejected without writing a WAL record replay would refuse
// (a NaN amount passes a plain `<= 0` check but poisons the log).
func checkDeposit(customer string, amount float64) error {
	if customer == "" {
		return fmt.Errorf("market: deposit needs a customer id")
	}
	if !isFinite(amount) || amount <= 0 {
		return fmt.Errorf("market: deposit amount %v must be positive", amount)
	}
	return nil
}

// checkCredit refuses a grant that would overflow the balance (with any
// reserved credit) to +Inf: such a balance buys anything, and recovery
// refuses a log that replays to one, so a durable broker could not
// restart.
func checkCredit(customer string, balance, amount float64) error {
	if !isFinite(balance + amount) {
		return fmt.Errorf("market: deposit %v would overflow %q's balance %v", amount, customer, balance)
	}
	return nil
}

// reserve checks a grant (an empty customer id, a non-positive amount,
// or a balance it would overflow with the credit already reserved and
// the debits still in flight) and holds its credit without applying it,
// for a deposit whose record is about to be journaled. Every reserve
// must be ended by exactly one settle.
func (w *Wallets) reserve(customer string, amount float64) error {
	if err := checkDeposit(customer, amount); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := checkCredit(customer, w.balances[customer]+w.pending[customer].sum+w.inflight[customer].sum, amount); err != nil {
		return err
	}
	hold(&w.pending, customer, amount)
	return nil
}

// settle ends a reservation: it credits the balance once the deposit's
// record is durable (apply), and only releases the credit otherwise.
func (w *Wallets) settle(customer string, amount float64, apply bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	release(w.pending, customer, amount)
	if !apply {
		return
	}
	if w.balances == nil {
		w.balances = make(map[string]float64)
	}
	w.balances[customer] += amount
}

// Balance returns a customer's current balance (0 for unknown
// customers).
func (w *Wallets) Balance(customer string) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.balances[customer]
}

// debit withdraws amount, failing without side effects when the balance
// is short. The debit stays in flight until a refund or resolve ends it.
func (w *Wallets) debit(customer string, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("market: negative debit %v", amount)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	bal := w.balances[customer]
	if bal < amount {
		return fmt.Errorf("market: customer %q has %.4f, needs %.4f", customer, bal, amount)
	}
	w.balances[customer] = bal - amount
	hold(&w.inflight, customer, amount)
	return nil
}

// resolve ends an in-flight debit whose sale's receipt is durable: the
// money stays spent, and the debit no longer counts against deposits.
func (w *Wallets) resolve(customer string, amount float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	release(w.inflight, customer, amount)
}

// refund ends an in-flight debit by returning amount to the customer
// (used when an answer fails or is withheld after the debit).
func (w *Wallets) refund(customer string, amount float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	release(w.inflight, customer, amount)
	if amount <= 0 {
		return
	}
	if w.balances == nil {
		w.balances = make(map[string]float64)
	}
	w.balances[customer] += amount
}

// Customers lists account holders in name order.
func (w *Wallets) Customers() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.balances))
	for c := range w.balances {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AttachWallets switches the broker to prepaid mode: subsequent Buy
// calls debit the wallet first and refund on failure. Passing nil
// returns the broker to invoice mode (no balance enforcement).
func (b *Broker) AttachWallets(w *Wallets) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wallets = w
}
