package market

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

// fakeServer listens on loopback, accepts exactly one connection and
// hands it to fn on a background goroutine. It lets the tests script
// hostile or legacy peer behaviour — reordered responses, bogus ids,
// mid-flight hangups — that the real server never produces.
func fakeServer(t *testing.T, fn func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// readRequest decodes one protocol line. Returns an error instead of
// failing the test because it runs on the fake server's goroutine.
func readRequest(r *bufio.Reader) (Request, error) {
	var req Request
	line, err := r.ReadBytes('\n')
	if err != nil {
		return req, err
	}
	return req, json.Unmarshal(line, &req)
}

func writeResponse(conn net.Conn, resp Response) error {
	blob, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	_, err = conn.Write(append(blob, '\n'))
	return err
}

// TestPipelinedOutOfOrderResponses proves responses are matched by id,
// not arrival order: the server answers the second request first, and
// each caller still receives its own answer.
func TestPipelinedOutOfOrderResponses(t *testing.T) {
	t.Parallel()
	both := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		first, err1 := readRequest(r)
		second, err2 := readRequest(r)
		close(both)
		if err1 != nil || err2 != nil {
			t.Errorf("fake server reads: %v, %v", err1, err2)
			return
		}
		// Reverse order: the later request is answered first. Echo the
		// request's Amount in Balance so the caller can verify it got
		// its own response, not just any response.
		for _, req := range []Request{second, first} {
			if err := writeResponse(conn, Response{ID: req.ID, OK: true, Balance: req.Amount}); err != nil {
				t.Errorf("fake server write: %v", err)
				return
			}
		}
	})

	client, err := Dial(addr, WithPipelining(), WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	for _, amount := range []float64{11, 22} {
		wg.Add(1)
		go func(amount float64) {
			defer wg.Done()
			resp, err := client.Do(Request{Op: "balance", Customer: "x", Amount: amount})
			if err != nil {
				t.Errorf("Do(%v): %v", amount, err)
				return
			}
			if resp.Balance != amount {
				t.Errorf("Do(%v) got response for %v: id matching failed", amount, resp.Balance)
			}
		}(amount)
		// Stagger the sends so the server reliably sees them as two
		// requests in a known arrival order before reversing.
		time.Sleep(20 * time.Millisecond)
	}
	<-both
	wg.Wait()
}

// TestPipelinedDropsUnknownAndDuplicateIDs: a buggy peer sending ids
// the client never issued, or the same id twice, must not crash the
// client, mis-deliver a response, or poison later calls.
func TestPipelinedDropsUnknownAndDuplicateIDs(t *testing.T) {
	t.Parallel()
	addr := fakeServer(t, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		req, err := readRequest(r)
		if err != nil {
			t.Errorf("fake server read: %v", err)
			return
		}
		// Garbage before the real answer, and a duplicate after it.
		for _, resp := range []Response{
			{ID: 9999, OK: true, Balance: -1},
			{ID: req.ID, OK: true, Balance: req.Amount},
			{ID: req.ID, OK: true, Balance: -2},
		} {
			if err := writeResponse(conn, resp); err != nil {
				t.Errorf("fake server write: %v", err)
				return
			}
		}
		// The client must still be functional for a second exchange.
		req2, err := readRequest(r)
		if err != nil {
			t.Errorf("fake server second read: %v", err)
			return
		}
		if err := writeResponse(conn, Response{ID: req2.ID, OK: true, Balance: req2.Amount}); err != nil {
			t.Errorf("fake server second write: %v", err)
		}
	})

	client, err := Dial(addr, WithPipelining(), WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Do(Request{Op: "balance", Customer: "x", Amount: 7})
	if err != nil {
		t.Fatalf("first Do: %v", err)
	}
	if resp.Balance != 7 {
		t.Fatalf("first Do routed wrong response: balance %v", resp.Balance)
	}
	resp, err = client.Do(Request{Op: "balance", Customer: "x", Amount: 8})
	if err != nil {
		t.Fatalf("second Do after id garbage: %v", err)
	}
	if resp.Balance != 8 {
		t.Fatalf("second Do routed wrong response: balance %v", resp.Balance)
	}
}

// TestPipelinedConnectionDeathFailsInFlight: when the peer hangs up
// with requests outstanding, every blocked Do must fail promptly (no
// waiting out the full timeout, no hang) and later calls fail fast.
func TestPipelinedConnectionDeathFailsInFlight(t *testing.T) {
	t.Parallel()
	const inFlight = 8
	received := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		for i := 0; i < inFlight; i++ {
			if _, err := readRequest(r); err != nil {
				t.Errorf("fake server read %d: %v", i, err)
				return
			}
		}
		close(received)
		// Hang up with every request unanswered.
	})

	client, err := Dial(addr, WithPipelining(), WithRequestTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Do(Request{Op: "catalog"})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	<-received
	for err := range errs {
		if err == nil {
			t.Error("in-flight request survived connection death")
		}
	}
	// The 30s request timeout must NOT be the thing that unblocked the
	// callers: connection death fails them directly.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("in-flight calls took %v to fail; want prompt failure on hangup", elapsed)
	}
	if _, err := client.Do(Request{Op: "catalog"}); err == nil {
		t.Error("Do after connection death should fail fast with the sticky error")
	}
}

// TestPipelinedClientAgainstLegacyServer: an old server echoes no ids
// and answers strictly in arrival order; the pipelined client must fall
// back to FIFO matching and still route every response correctly.
func TestPipelinedClientAgainstLegacyServer(t *testing.T) {
	t.Parallel()
	const calls = 16
	addr := fakeServer(t, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		for i := 0; i < calls; i++ {
			req, err := readRequest(r)
			if err != nil {
				t.Errorf("fake legacy server read %d: %v", i, err)
				return
			}
			// No ID in the response, answers in arrival order — exactly
			// how the pre-pipelining server behaved.
			if err := writeResponse(conn, Response{OK: true, Balance: req.Amount}); err != nil {
				t.Errorf("fake legacy server write %d: %v", i, err)
				return
			}
		}
	})

	client, err := Dial(addr, WithPipelining(), WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(amount float64) {
			defer wg.Done()
			resp, err := client.Do(Request{Op: "balance", Customer: "x", Amount: amount})
			if err != nil {
				t.Errorf("Do(%v): %v", amount, err)
				return
			}
			if resp.Balance != amount {
				t.Errorf("FIFO fallback mis-routed: sent %v, got %v", amount, resp.Balance)
			}
		}(float64(i + 1))
	}
	wg.Wait()
}

// TestMixedPipelinedAndLegacyClients drives both client modes against
// one real server concurrently — the interop matrix under the race
// detector: id-bearing and id-less requests interleave on the broker.
func TestMixedPipelinedAndLegacyClients(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const perClient = 20
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		opts := []DialOption{WithRequestTimeout(10 * time.Second)}
		if i%2 == 0 {
			opts = append(opts, WithPipelining())
		}
		client, err := Dial(srv.Addr(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			var inner sync.WaitGroup
			for j := 0; j < perClient; j++ {
				inner.Add(1)
				go func(j int) {
					defer inner.Done()
					if j%2 == 0 {
						if _, err := c.Catalog(); err != nil {
							t.Errorf("catalog: %v", err)
						}
						return
					}
					if _, _, err := c.Quote("ozone", 0.05, 0.9); err != nil {
						t.Errorf("quote: %v", err)
					}
				}(j)
			}
			inner.Wait()
		}(client)
	}
	wg.Wait()
}

// TestAdmissionControlSheds: with the in-flight gate clamped to one,
// a pipelined blast must see some requests refused with the retryable
// overload error — and the ones that are admitted still succeed.
func TestAdmissionControlSheds(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	broker.SetTelemetry(m)
	srv, err := Serve(broker, "127.0.0.1:0", WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr(), WithPipelining(), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Buys are the slowest op (quote, debit, DP release, record), so
	// concurrent calls reliably overlap inside the gate. Retry the blast
	// a few times rather than trusting one round's scheduling.
	var ok, shed int
	for round := 0; round < 5 && (shed == 0 || ok == 0); round++ {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := client.Buy(Request{Dataset: "ozone", Customer: "carol", L: 0, U: 100, Alpha: 0.05, Delta: 0.9})
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					t.Errorf("buy failed with a non-overload error: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	if shed == 0 {
		t.Fatal("no request was shed despite a max-in-flight of 1 under a concurrent blast")
	}
	if ok == 0 {
		t.Fatal("every request was shed: admitted requests should still succeed")
	}
	if got := m.shedTotal.Value(); got != uint64(shed) {
		t.Errorf("shed metric %d, client observed %d overload errors", got, shed)
	}
	if infl := m.inflight.Value(); infl != 0 {
		t.Errorf("inflight gauge %v after drain, want 0", infl)
	}
}

// TestShedDisabled: WithMaxInFlight(0) turns the gate off — the same
// blast that sheds above must fully succeed.
func TestShedDisabled(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0", WithMaxInFlight(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), WithPipelining(), WithRequestTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := client.Quote("ozone", 0.05, 0.9); err != nil {
				t.Errorf("quote with admission disabled: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestOversizedFrameGetsProtocolError: a line over the frame limit kills
// the connection (the stream cannot resync), but the client must first
// receive an explicit protocol error — and the metric must count it.
func TestOversizedFrameGetsProtocolError(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	broker.SetTelemetry(m)
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Push past the 1 MiB frame limit without a newline. Written from a
	// goroutine: once the server stops consuming, the tail of the write
	// may block on TCP flow control until the server closes its side.
	go func() {
		junk := make([]byte, 64<<10)
		for i := range junk {
			junk[i] = 'a'
		}
		for written := 0; written < maxLineBytes+len(junk); written += len(junk) {
			if _, err := conn.Write(junk); err != nil {
				return // server already closed: expected
			}
		}
	}()

	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no protocol error before close: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("malformed oversize error response: %v", err)
	}
	if !strings.Contains(resp.Error, "frame limit") {
		t.Errorf("error %q should name the frame limit", resp.Error)
	}
	if resp.Retryable {
		t.Error("an oversized frame is a protocol violation, not a retryable overload")
	}
	if got := m.oversizedFrames.Value(); got != 1 {
		t.Errorf("oversized frame metric %d, want 1", got)
	}
}

// TestPipelinedManyInFlight floods one connection far past the pipeline
// window; the window throttles via TCP backpressure and every request
// still completes exactly once.
func TestPipelinedManyInFlight(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0", WithPipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), WithPipelining(), WithRequestTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const calls = 200
	var wg sync.WaitGroup
	var okCount sync.Map
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Catalog(); err != nil {
				t.Errorf("catalog %d: %v", i, err)
				return
			}
			okCount.Store(i, true)
		}(i)
	}
	wg.Wait()
	n := 0
	okCount.Range(func(_, _ any) bool { n++; return true })
	if n != calls {
		t.Errorf("%d of %d pipelined calls completed", n, calls)
	}
}
