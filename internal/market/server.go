package market

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server exposes a Broker over TCP with a newline-delimited JSON
// protocol: one Request per line in, one Response per line out,
// arbitrarily many exchanges per connection.
//
// The serving path is pipelined: requests carrying a non-zero id are
// dispatched to handler goroutines while the reader keeps consuming
// frames, and a dedicated per-connection writer drains a bounded
// response queue, so one connection can have many sales in flight.
// Requests without an id (old clients) are answered strictly in
// arrival order, preserving the legacy one-at-a-time contract.
//
// Memory per connection is bounded: at most pipeline-depth handler
// goroutines (the reader blocks on a slot semaphore past that, turning
// excess pipelining into TCP backpressure), a response queue sized to
// the same depth, and one frame buffer. A module-wide admission gate
// caps requests in flight across all connections; excess requests are
// refused immediately with a retryable protocol error instead of
// queueing unboundedly.
type Server struct {
	broker   *Broker
	listener net.Listener
	idle     time.Duration
	// depth bounds requests in flight per connection (the pipeline
	// window). The reader stops consuming frames when the window is
	// full, so a client that outruns the broker is throttled by TCP
	// flow control, not by server memory.
	depth int
	// maxInFlight caps admitted requests across all connections; 0
	// disables the gate. inflight is the current count.
	maxInFlight int64
	inflight    atomic.Int64
	// eagerDeadline restores the historical re-arm-every-frame deadline
	// behaviour; only benchmarks set it (see BenchmarkServerDeadline).
	eagerDeadline bool
	// metrics counts connections, bytes and transport failures: the
	// metrics the broker carries when Serve starts. Nil records nothing.
	metrics *Metrics

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// maxLineBytes bounds a single protocol line to keep hostile clients from
// exhausting memory.
const maxLineBytes = 1 << 20

// defaultIdleTimeout is how long a connection may sit silent (no request
// arriving, or a response not draining) before the server drops it. Dead
// and stalled clients must not pin handler goroutines forever.
const defaultIdleTimeout = 2 * time.Minute

// defaultPipelineDepth is the per-connection pipeline window: how many
// requests one connection may have in flight before the reader applies
// TCP backpressure.
const defaultPipelineDepth = 64

// defaultMaxInFlight is the module-wide admission cap on concurrently
// executing requests.
const defaultMaxInFlight = 1024

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithIdleTimeout sets how long a connection may idle between requests
// (and how long a response write may stall) before the server closes it.
// Zero or negative disables the deadline entirely — callers own the risk
// of dead clients pinning handler goroutines.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idle = d }
}

// WithPipelineDepth bounds how many pipelined requests one connection
// may have in flight (and how many responses it may have queued). Values
// below one fall back to the default.
func WithPipelineDepth(n int) ServerOption {
	return func(s *Server) {
		if n >= 1 {
			s.depth = n
		}
	}
}

// WithMaxInFlight caps admitted requests across all connections; excess
// requests are shed with a retryable protocol error. Zero or negative
// disables the admission gate.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) {
		if n < 0 {
			n = 0
		}
		s.maxInFlight = int64(n)
	}
}

// withEagerDeadline re-arms the connection deadline on every frame, the
// pre-pipelining behaviour. Exists only so the deadline-churn benchmark
// can measure lazy vs eager re-arming on the same code path.
func withEagerDeadline() ServerOption {
	return func(s *Server) { s.eagerDeadline = true }
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") and begins accepting
// connections in the background. Close shuts it down.
func Serve(broker *Broker, addr string, opts ...ServerOption) (*Server, error) {
	if broker == nil {
		return nil, fmt.Errorf("market: nil broker")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("market: listen %s: %w", addr, err)
	}
	s := &Server{
		broker:      broker,
		listener:    ln,
		idle:        defaultIdleTimeout,
		depth:       defaultPipelineDepth,
		maxInFlight: defaultMaxInFlight,
		metrics:     broker.Telemetry(),
		conns:       make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: clean shutdown
			}
			// Transient accept failure (e.g. EMFILE, aborted handshake):
			// count it and keep serving instead of silently killing the
			// listener for every remaining client.
			s.metrics.noteAcceptFailure()
			continue
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.metrics.noteConnOpen()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.metrics.noteConnClose()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	_ = conn.Close()
}

// admit reserves one slot in the module-wide in-flight gate, or reports
// that the request must be shed. release undoes it.
func (s *Server) admit() bool {
	if s.maxInFlight <= 0 {
		return true
	}
	if s.inflight.Add(1) > s.maxInFlight {
		s.inflight.Add(-1)
		return false
	}
	s.metrics.noteAdmit()
	return true
}

func (s *Server) release() {
	if s.maxInFlight <= 0 {
		return
	}
	s.inflight.Add(-1)
	s.metrics.noteFinish()
}

// shedResponse is the explicit retryable rejection admission control
// answers with instead of queueing.
func shedResponse(id uint64) *Response {
	return &Response{
		ID:        id,
		Error:     "market: overloaded: too many requests in flight, retry after backoff",
		Retryable: true,
	}
}

// armDeadline pushes the connection's read/write deadline one idle
// period into the future. It re-arms lazily: a syscall per frame is
// measurable on the hot loop (see BenchmarkServerDeadline), and a
// deadline armed within the last quarter of the idle period is still
// at least 3·idle/4 away — close enough that re-arming buys nothing.
// lastArm is owned by the reader goroutine.
func (s *Server) armDeadline(conn net.Conn, lastArm *time.Time) error {
	if s.idle <= 0 {
		return nil
	}
	now := time.Now()
	if !s.eagerDeadline && !lastArm.IsZero() && now.Sub(*lastArm) < s.idle/4 {
		return nil
	}
	*lastArm = now
	return conn.SetDeadline(now.Add(s.idle))
}

// servedConn is the per-connection serving state: a bounded response
// queue drained by one writer goroutine, a slot semaphore bounding the
// pipeline window, and the join handles for both goroutine kinds.
type servedConn struct {
	s     *Server
	conn  net.Conn
	respQ chan *Response
	// slots is the pipeline window: the reader takes a slot before
	// dispatching a handler and the handler returns it after enqueueing
	// its response, so at most cap(slots) handlers exist per connection
	// and each can always enqueue without blocking (cap(respQ) ≥
	// cap(slots)).
	slots    chan struct{}
	handlers sync.WaitGroup
	writerWG sync.WaitGroup
}

func (s *Server) serveConn(conn net.Conn) {
	c := &servedConn{
		s:     s,
		conn:  conn,
		respQ: make(chan *Response, s.depth+8),
		slots: make(chan struct{}, s.depth),
	}
	c.writerWG.Add(1)
	go c.writeLoop()
	s.readLoop(c)
	// Reader is done: no new handlers will spawn. Wait for in-flight
	// handlers to enqueue their responses, then let the writer drain
	// what it can and exit.
	c.handlers.Wait()
	close(c.respQ)
	c.writerWG.Wait()
}

// readLoop consumes frames and dispatches them. Id-less requests are
// handled inline (strict arrival order, the legacy contract); id'd
// requests go through admission and run on handler goroutines.
func (s *Server) readLoop(c *servedConn) {
	scanner := bufio.NewScanner(c.conn)
	scanner.Buffer(make([]byte, 0, 4096), maxLineBytes)
	var lastArm time.Time
	if err := s.armDeadline(c.conn, &lastArm); err != nil {
		return
	}
	for scanner.Scan() {
		line := scanner.Bytes()
		s.metrics.noteRead(len(line) + 1)
		if len(line) == 0 {
			continue
		}
		// An active client keeps its deadline fresh; a silent one (or
		// one not draining responses) is cut off after an idle period.
		if err := s.armDeadline(c.conn, &lastArm); err != nil {
			return
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			// A malformed frame is the client's problem, not the
			// connection's: count it and answer with a protocol error.
			// No id can be attributed, so pipelined clients see id 0.
			s.metrics.noteDecodeFailure()
			c.respQ <- &Response{Error: fmt.Sprintf("market: malformed request: %v", err)}
			continue
		}
		if req.ID == 0 {
			// Legacy one-at-a-time request: handle inline so responses
			// leave in arrival order, exactly as before pipelining.
			if !s.admit() {
				s.metrics.noteShed()
				c.respQ <- shedResponse(0)
				continue
			}
			resp := s.broker.Handle(req)
			s.release()
			c.respQ <- resp
			continue
		}
		// Pipelined request: take a pipeline slot first (blocking here
		// throttles an over-eager client via TCP flow control), then
		// pass the module-wide admission gate.
		c.slots <- struct{}{}
		s.metrics.noteSlotAcquire()
		if !s.admit() {
			<-c.slots
			s.metrics.noteSlotRelease()
			s.metrics.noteShed()
			c.respQ <- shedResponse(req.ID)
			continue
		}
		c.handlers.Add(1)
		go func(req Request) {
			defer c.handlers.Done()
			resp := s.broker.Handle(req)
			resp.ID = req.ID
			// Leave the in-flight gate before the response can reach the
			// client, so a client that saw every answer also sees the
			// gauge back at zero.
			s.release()
			c.respQ <- resp
			<-c.slots
			s.metrics.noteSlotRelease()
		}(req)
	}
	if errors.Is(scanner.Err(), bufio.ErrTooLong) {
		// The frame blew the line limit. The stream cannot be resynced
		// (we do not know where the oversized line ends), so the
		// connection must die — but loudly: count it and answer a
		// protocol error the client will see before the close.
		s.metrics.noteOversizedFrame()
		c.respQ <- &Response{Error: fmt.Sprintf("market: request exceeds the %d-byte frame limit", maxLineBytes)}
	}
}

// writeLoop drains the response queue into the connection, flushing
// only when the queue runs empty so back-to-back pipelined responses
// share flushes. After a write failure it closes the connection (the
// peer is gone or stalled past its deadline) and keeps draining so
// handlers never block on a dead writer.
func (c *servedConn) writeLoop() {
	defer c.writerWG.Done()
	writer := bufio.NewWriter(&countWriter{w: c.conn, m: c.s.metrics})
	enc := json.NewEncoder(writer)
	failed := false
	for resp := range c.respQ {
		if failed {
			continue
		}
		if err := enc.Encode(resp); err != nil {
			failed = true
		} else if len(c.respQ) == 0 {
			if err := writer.Flush(); err != nil {
				failed = true
			}
		}
		if failed {
			// Unblock the reader (blocked in Scan) and future writes.
			_ = c.conn.Close()
		}
	}
	if !failed {
		_ = writer.Flush()
	}
}

// Close stops accepting, closes live connections, and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
