package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Handler returns the ops endpoint for a registry:
//
//	GET /metrics        Prometheus text exposition
//	GET /snapshot       JSON snapshot (metrics + events)
//	GET /traces         JSON distributed spans (the per-request view)
//	GET /debug/pprof/*  net/http/pprof profiles
//	GET /               plain-text index of the routes above
//
// The endpoint is strictly read-only and carries only post-noise and
// aggregate values (see the package privacy contract); it still binds
// to loopback by default in the daemons because pprof exposes heap
// contents, which may include customer identifiers and query ranges.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.TraceSpans())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "privrange ops endpoint")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		fmt.Fprintln(w, "  /snapshot      JSON metrics + events")
		fmt.Fprintln(w, "  /traces        JSON distributed spans")
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
	})
	return mux
}

// OpsServer is a running ops HTTP endpoint.
type OpsServer struct {
	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup
}

// Serve starts the ops endpoint on addr (use "127.0.0.1:0" for an
// ephemeral port) and serves Handler(r) in the background until Close.
func Serve(addr string, r *Registry) (*OpsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(r),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s := &OpsServer{ln: ln, srv: srv}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the endpoint's bound address.
func (s *OpsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down and joins the accept loop, so no
// goroutine outlives the server handle.
func (s *OpsServer) Close() error {
	err := s.srv.Close()
	s.wg.Wait()
	return err
}
