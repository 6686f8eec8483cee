package market

import (
	"errors"
	"net"
	"testing"
	"time"

	"privrange/internal/pricing"
	"privrange/internal/telemetry"
)

// TestClientRequestTimeoutUnsticksFromStalledServer pins the DialOption
// contract: a server that accepts the connection and then goes silent
// must produce a deadline error from Do, not a goroutine pinned on a
// read forever.
func TestClientRequestTimeoutUnsticksFromStalledServer(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Accept and hold: read the request so the client's write succeeds,
	// then never answer — the worst case a dead broker presents.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	client, err := Dial(ln.Addr().String(), WithRequestTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	_, err = client.Do(Request{Op: "catalog"})
	if err == nil {
		t.Fatal("Do against a stalled server must fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want a deadline (timeout) error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Do unblocked after %v, want ~150ms", elapsed)
	}
}

// TestClientDefaultTimeoutMirrorsServerIdle documents the default: a
// Dial with no options arms the same 2-minute bound the server applies
// to silent clients, so neither side can pin the other indefinitely.
func TestClientDefaultTimeoutMirrorsServerIdle(t *testing.T) {
	t.Parallel()
	broker, _ := buildBroker(t, pricing.InverseVariance{C: 1e9})
	srv, err := Serve(broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.timeout != defaultIdleTimeout {
		t.Errorf("default client timeout = %v, want server idle default %v", client.timeout, defaultIdleTimeout)
	}
	// Zero disables, mirroring WithIdleTimeout(0) on the server side.
	bare, err := Dial(srv.Addr(), WithRequestTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if bare.timeout != 0 {
		t.Errorf("WithRequestTimeout(0) should disable the deadline, got %v", bare.timeout)
	}
}

// TestServerSurvivesMalformedFrame feeds the server a garbage line and
// checks three things: the decode-failure counter increments, the
// offending connection gets a protocol error back (not a hangup), and
// the server keeps answering well-formed requests afterwards.
func TestServerSurvivesMalformedFrame(t *testing.T) {
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
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("{this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The server must respond with a protocol-level error frame rather
	// than dropping the connection.
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("server dropped the connection on a malformed frame: %v", err)
	}
	if n == 0 {
		t.Fatal("empty error response")
	}
	if got := m.decodeFailures.Value(); got != 1 {
		t.Fatalf("decode failures = %d, want 1", got)
	}

	// The same listener still serves valid clients.
	client, err := Dial(srv.Addr(), WithRequestTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Catalog(); err != nil {
		t.Fatalf("catalog after malformed frame: %v", err)
	}
	if got := m.decodeFailures.Value(); got != 1 {
		t.Errorf("valid traffic moved the decode-failure counter: %d", got)
	}
	if m.bytesRead.Value() == 0 || m.bytesWritten.Value() == 0 {
		t.Error("byte counters should have recorded the exchanges")
	}
}
