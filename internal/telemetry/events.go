package telemetry

import (
	"sync"
	"time"
)

// DefaultEventCapacity is the default event-log ring size.
const DefaultEventCapacity = 512

// Event is one operational state transition — e.g. a circuit breaker
// opening on a node, or a connection being dropped. Type and Detail
// must be constants or aggregate-derived strings; the privacyboundary
// analyzer forbids data-derived values here.
type Event struct {
	// Seq is the event's 1-based global sequence number, assigned by
	// Append; consumers use it to pin ordering across scrapes.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type names the transition, e.g. "breaker_open".
	Type string `json:"type"`
	// Node is the subject node id, or -1 when not node-scoped.
	Node int `json:"node"`
	// Round is the network round clock at the transition (0 when not
	// round-scoped).
	Round uint64 `json:"round"`
	// Detail carries an optional constant annotation.
	Detail string `json:"detail,omitempty"`
}

// EventLog retains the most recent events in a fixed ring. Append is
// cheap (short mutex, no allocation) and nil-safe.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next uint64
}

// NewEventLog returns a log retaining the last capacity events
// (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// Append records one event, stamping its sequence number and time.
func (l *EventLog) Append(typ string, node int, round uint64, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.next++
	l.ring[int((l.next-1)%uint64(len(l.ring)))] = Event{
		Seq:    l.next,
		Time:   time.Now(),
		Type:   typ,
		Node:   node,
		Round:  round,
		Detail: detail,
	}
	l.mu.Unlock()
}

// Total returns how many events were ever appended.
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	have := l.next
	if have > uint64(len(l.ring)) {
		have = uint64(len(l.ring))
	}
	out := make([]Event, 0, have)
	for i := l.next - have; i < l.next; i++ {
		out = append(out, l.ring[int(i%uint64(len(l.ring)))])
	}
	return out
}
