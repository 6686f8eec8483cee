package iot

import (
	"errors"
	"fmt"
)

// ErrPartialRound reports that a collection or heartbeat round completed
// but could not reach every node it attempted: some nodes failed after
// exhausting their retries. The round's report carries per-node detail;
// the surviving nodes' state was still refreshed. Use errors.Is.
var ErrPartialRound = errors.New("iot: round completed partially")

// CrashWindow schedules a node outage in network-round time: the node is
// unreachable (every transmission attempt fails) while
// From <= round < Until. The round clock starts at 1 and advances by one
// on every EnsureRate, IngestRound or HeartbeatRound call, so chaos
// tests can script crash/recover sequences deterministically.
type CrashWindow struct {
	From, Until uint64
}

// FaultProfile describes one node's failure behaviour for fault
// injection. The zero value injects nothing beyond the global
// Config.LossRate.
type FaultProfile struct {
	// LossRate, when positive, overrides Config.LossRate for this node:
	// the probability that one transmission attempt is dropped. A value
	// of 1 models a hard fault — the node is permanently unreachable.
	LossRate float64
	// CorruptRate is the probability that a delivered attempt arrives
	// with flipped or trailing bytes. Corruption is detected through the
	// real wire-decode path (unknown tag / framing errors), billed like
	// any other attempt, counted in CostReport.CorruptedMessages, and
	// retried up to the retry bound.
	CorruptRate float64
	// CrashWindows schedules outages in round time (see CrashWindow).
	CrashWindows []CrashWindow
}

// validate checks one profile's parameters.
func (p FaultProfile) validate(id int) error {
	if !(p.LossRate >= 0 && p.LossRate <= 1) {
		return fmt.Errorf("iot: node %d fault loss rate %v outside [0, 1]", id, p.LossRate)
	}
	if !(p.CorruptRate >= 0 && p.CorruptRate <= 1) {
		return fmt.Errorf("iot: node %d corrupt rate %v outside [0, 1]", id, p.CorruptRate)
	}
	for _, w := range p.CrashWindows {
		if w.Until <= w.From {
			return fmt.Errorf("iot: node %d crash window [%d, %d) is empty", id, w.From, w.Until)
		}
	}
	return nil
}

// crashedAt reports whether the profile schedules an outage at the given
// round.
func (p FaultProfile) crashedAt(round uint64) bool {
	for _, w := range p.CrashWindows {
		if round >= w.From && round < w.Until {
			return true
		}
	}
	return false
}

// breakerState is the per-node circuit breaker: a node failing
// FailureThreshold consecutive rounds is auto-marked down (no bytes are
// wasted on it) and reinstated with exponential backoff — each re-trip
// without an intervening success doubles the wait.
type breakerState struct {
	// fails counts consecutive failed rounds since the last success.
	fails int
	// trips counts consecutive trips without a success; it sets the
	// backoff exponent.
	trips int
	// open marks the breaker tripped; the node sits in the down set.
	open bool
	// reopenRound is the round at which the node is retried (half-open).
	reopenRound uint64
}

// maxBreakerBackoff caps the exponential backoff in rounds so a flapping
// node is never exiled forever.
const maxBreakerBackoff = 1024

// backoffRounds returns the reinstatement delay after the trips-th trip.
func backoffRounds(base int, trips int) uint64 {
	b := uint64(base)
	for i := 1; i < trips; i++ {
		b <<= 1
		if b >= maxBreakerBackoff {
			return maxBreakerBackoff
		}
	}
	if b > maxBreakerBackoff {
		return maxBreakerBackoff
	}
	return b
}

// noteFailureLocked records one failed round for the breaker, tripping
// it at the configured threshold. Callers hold nw.mu.
func (nw *Network) noteFailureLocked(id int) {
	if nw.cfg.FailureThreshold <= 0 {
		return
	}
	st := nw.breaker[id]
	if st == nil {
		st = &breakerState{}
		nw.breaker[id] = st
	}
	st.fails++
	if st.fails < nw.cfg.FailureThreshold {
		return
	}
	st.fails = 0
	st.open = true
	st.trips++
	st.reopenRound = nw.clock + backoffRounds(nw.cfg.BreakerBackoff, st.trips)
	nw.down[id] = true
	nw.metrics.noteBreaker(EventBreakerOpen, id, nw.clock)
}

// noteSuccessLocked clears the breaker after a successful exchange. A
// node that had tripped (and was on probation) closes its breaker for
// good; the transition is logged so operators can correlate recovery
// with the open that preceded it.
func (nw *Network) noteSuccessLocked(id int) {
	if st := nw.breaker[id]; st != nil && st.trips > 0 {
		nw.metrics.noteBreaker(EventBreakerClose, id, nw.clock)
	}
	delete(nw.breaker, id)
}

// reinstateLocked half-opens breakers whose backoff expired: the node
// rejoins the reachable set, marked dirty so the round retries it. One
// more failure re-trips immediately with a doubled backoff.
func (nw *Network) reinstateLocked() {
	for id, st := range nw.breaker {
		if !st.open || nw.clock < st.reopenRound {
			continue
		}
		st.open = false
		// Half-open: the very next failure must re-trip.
		st.fails = nw.cfg.FailureThreshold - 1
		delete(nw.down, id)
		nw.dirty[id] = true
		nw.metrics.noteBreaker(EventBreakerHalfOpen, id, nw.clock)
	}
}

// BreakerOpen reports whether the node is currently exiled by the
// circuit breaker (as opposed to manually SetDown).
func (nw *Network) BreakerOpen(id int) bool {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	st := nw.breaker[id]
	return st != nil && st.open
}

// crashedLocked reports whether the node's fault profile schedules an
// outage at the current round. Callers hold nw.mu.
func (nw *Network) crashedLocked(id int) bool {
	prof, ok := nw.cfg.Faults[id]
	return ok && prof.crashedAt(nw.clock)
}

// unreachableLocked is the union of manual downs, breaker exiles and
// scheduled crashes — the nodes whose data the base station cannot
// refresh right now.
func (nw *Network) unreachableLocked(id int) bool {
	return nw.down[id] || nw.crashedLocked(id)
}

// corruptPayload returns a corrupted copy of an encoded message.
// Alternating by sequence number it either flips the type tag's high bit
// (driving wire.Decode's unknown-tag error) or appends a stray byte
// (driving the trailing-bytes framing check), so both detection paths
// stay exercised.
func corruptPayload(data []byte, seq int) []byte {
	c := make([]byte, len(data), len(data)+1)
	copy(c, data)
	if seq%2 == 0 {
		c[0] ^= 0x80
	} else {
		c = append(c, 0x00)
	}
	return c
}
