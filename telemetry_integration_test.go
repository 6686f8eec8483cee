package privrange_test

// End-to-end observability scenario: a marketplace with telemetry
// enabled sells answers over TCP while the operational HTTP endpoint
// is scraped like a real monitoring stack would — Prometheus text for
// the query latency histogram, ε-spend gauges and collection coverage,
// and the /traces span stream for every purchase's phases. Run under
// -race in CI.

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"privrange"
	"privrange/internal/dataset"
	"privrange/internal/market"
)

func TestTelemetryOpsEndpointEndToEnd(t *testing.T) {
	t.Parallel()
	series, err := dataset.GenerateSeries(dataset.Ozone, dataset.GenerateConfig{Seed: 11, Records: 6000})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := privrange.NewMarketplace(privrange.Tariff{Base: 1, C: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	// Ops endpoint first: the dataset registered afterwards must be
	// instrumented on registration.
	ops, err := mp.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	mp.EnableTracing(1)
	if err := mp.AddDataset("ozone", series.Values, privrange.Options{Nodes: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	srv, err := mp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := market.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const buys = 3
	for i := 0; i < buys; i++ {
		req := market.Request{Dataset: "ozone", Customer: "carol", L: 30, U: 80 + float64(i), Alpha: 0.1, Delta: 0.6}
		if _, err := client.Buy(req); err != nil {
			t.Fatal(err)
		}
	}

	scrape := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + ops.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := scrape("/metrics")

	// The query latency histogram saw every purchase.
	count := promValue(t, metrics, `privrange_core_query_seconds_count{dataset="ozone"}`)
	if count != buys {
		t.Fatalf("latency histogram count = %v, want %d\n%s", count, buys, metrics)
	}
	if !strings.Contains(metrics, `privrange_core_query_seconds_bucket{dataset="ozone",le="+Inf"}`) {
		t.Fatalf("latency histogram has no buckets:\n%s", metrics)
	}

	// ε-spend matches the ledger exactly.
	spent := promValue(t, metrics, `privrange_dp_epsilon_spent{dataset="ozone"}`)
	if want := mp.PrivacySpent("ozone"); spent <= 0 || absDiff(spent, want) > 1e-9 {
		t.Fatalf("epsilon spent gauge = %v, ledger says %v", spent, want)
	}

	// The collection layer published its coverage (fully reachable here).
	if cov := promValue(t, metrics, `privrange_iot_coverage{dataset="ozone"}`); cov != 1 {
		t.Fatalf("coverage = %v, want 1", cov)
	}

	// The market layer counted the sales and the transport connection.
	if sold := promValue(t, metrics, `privrange_market_purchases_total`); sold != buys {
		t.Fatalf("purchases = %v, want %d", sold, buys)
	}
	if active := promValue(t, metrics, `privrange_market_connections_active`); active != 1 {
		t.Fatalf("active connections = %v, want 1", active)
	}

	// Every buy is traced (1 in 1): /traces holds, per buy, one
	// market.buy tree with exactly one engine release under it and
	// exactly one span per pipeline phase.
	var tw struct {
		Spans []struct {
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
			Parent  string `json:"parent_id"`
			Name    string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(scrape("/traces")), &tw); err != nil {
		t.Fatalf("traces: %v", err)
	}
	names := map[string]map[string]int{}
	buySpan, answerParent := map[string]string{}, map[string]string{}
	for _, sp := range tw.Spans {
		if names[sp.TraceID] == nil {
			names[sp.TraceID] = map[string]int{}
		}
		names[sp.TraceID][sp.Name]++
		switch sp.Name {
		case "market.buy":
			buySpan[sp.TraceID] = sp.SpanID
		case "core.answer":
			answerParent[sp.TraceID] = sp.Parent
		}
	}
	for tid := range buySpan {
		for _, want := range []string{
			"market.buy", "market.buy.price", "market.buy.debit", "market.buy.answer",
			"market.buy.record", "market.buy.fsync",
			"core.answer", "core.answer.sample_lookup", "core.answer.optimize",
			"core.answer.estimate", "core.answer.perturb",
		} {
			if n := names[tid][want]; n != 1 {
				t.Fatalf("trace %s holds %d %q spans, want 1: %v", tid, n, want, names[tid])
			}
		}
		if answerParent[tid] != buySpan[tid] {
			t.Fatalf("trace %s: core.answer parented on %q, not on market.buy %q", tid, answerParent[tid], buySpan[tid])
		}
	}
	if len(buySpan) != buys {
		t.Fatalf("%d market.buy traces on /traces, want %d", len(buySpan), buys)
	}
}

// promValue extracts one sample's value from Prometheus text
// exposition by its exact series name (including the label set).
func promValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", series, exposition)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
