package lint_test

import (
	"encoding/json"
	"strings"
	"testing"

	"privrange/internal/lint"
)

// loadModuleFacts loads the module and computes its fact store once per
// test that needs it (the analysistest package keeps its own copy; this
// one exercises the public surface directly).
func loadModuleFacts(t *testing.T) (*lint.Loader, *lint.FactStore) {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	facts, err := lint.ComputeFacts(pkgs, loader.Fset)
	if err != nil {
		t.Fatalf("ComputeFacts: %v", err)
	}
	return loader, facts
}

// TestFactsRoundTrip pins the serialization boundary: facts consumed by
// dependent packages must survive the encode/decode round trip byte-for
// -byte equivalent to what the producer computed, and the market
// package's facts must describe the real broker — the same graph
// DESIGN.md §13 documents.
func TestFactsRoundTrip(t *testing.T) {
	_, facts := loadModuleFacts(t)

	const marketPath = "privrange/internal/market"
	raw := facts.Encoded(marketPath)
	if len(raw) == 0 {
		t.Fatalf("no encoded facts for %s", marketPath)
	}

	// The encoded bytes are the interchange format: decode them with
	// plain encoding/json, independent of the store.
	var pf lint.PackageFacts
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatalf("decoding %s facts: %v", marketPath, err)
	}
	if pf.Package != marketPath {
		t.Fatalf("package = %q, want %q", pf.Package, marketPath)
	}

	// Broker.Buy: the purchase path write-locks recordMu for receipt
	// ordering and reaches the WAL fsync — both must be visible to
	// importers through the serialized summary.
	buy, ok := pf.Funcs["Broker.Buy"]
	if !ok {
		t.Fatalf("facts for %s lack Broker.Buy; have %d funcs", marketPath, len(pf.Funcs))
	}
	const recordMu = "privrange/internal/market.Broker.recordMu"
	if mode, ok := buy.Acquires[recordMu]; !ok || mode != lint.ModeExclusive {
		t.Errorf("Broker.Buy.Acquires[%s] = %q, %v; want exclusive", recordMu, mode, ok)
	}
	hasFsync := false
	for _, b := range buy.Blocks {
		if b.Op == "fsync" {
			hasFsync = true
			if b.Pos == "" {
				t.Errorf("fsync block op lost its position in the round trip")
			}
		}
	}
	if !hasFsync {
		t.Errorf("Broker.Buy.Blocks = %+v; want an fsync op (WAL sync on the buy path)", buy.Blocks)
	}

	// The commitMu → recordMu ordering edge (§13) must be serialized so
	// other packages can extend the global graph.
	foundEdge := false
	for _, e := range pf.Edges {
		if strings.HasSuffix(e.From, "Broker.commitMu") && strings.HasSuffix(e.To, "Broker.recordMu") {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Errorf("market edges lack commitMu→recordMu; got %d edges", len(pf.Edges))
	}

	// AllEdges must include the market edges (the global cycle check
	// feeds on it).
	inAll := false
	for _, e := range facts.AllEdges() {
		if strings.HasSuffix(e.From, "Broker.commitMu") && strings.HasSuffix(e.To, "Broker.recordMu") {
			inAll = true
		}
	}
	if !inAll {
		t.Errorf("AllEdges is missing the market commitMu→recordMu edge")
	}

	// ForPackage must hand out fresh decoded copies: a consumer mutating
	// its view must not corrupt the store (the property that makes facts
	// a serialization boundary, not shared memory).
	view1, ok := facts.ForPackage(marketPath)
	if !ok {
		t.Fatalf("ForPackage(%s) missing", marketPath)
	}
	delete(view1.Funcs, "Broker.Buy")
	view2, ok := facts.ForPackage(marketPath)
	if !ok {
		t.Fatalf("ForPackage(%s) missing on re-read", marketPath)
	}
	if _, ok := view2.Funcs["Broker.Buy"]; !ok {
		t.Errorf("mutating a decoded view leaked into the store: Broker.Buy vanished")
	}
}
