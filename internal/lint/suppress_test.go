package lint_test

import (
	"strings"
	"testing"

	"privrange/internal/lint"
)

// TestSuppression exercises the //lint:allow machinery end to end on
// the suppress fixture: a reasoned directive silences its finding, a
// reasonless one is malformed and silences nothing, and a directive
// that matches nothing is itself a finding.
func TestSuppression(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir("testdata/src/suppress", "privrange/internal/lint/testdata/src/suppress")
	if err != nil {
		t.Fatalf("loading suppress fixture: %v", err)
	}
	diags, err := lint.Run([]*lint.Analyzer{lint.GoroutineScope}, []*lint.Package{pkg}, loader.Fset, lint.RunConfig{})
	if err != nil {
		t.Fatalf("running goroutinescope: %v", err)
	}

	type found struct{ analyzer, needle string }
	wants := []found{
		{"suppress", "malformed suppression"},
		{"goroutinescope", "not analyzable"}, // spawnMissingReason: reasonless directive does not suppress
		{"goroutinescope", "not analyzable"}, // spawnBare
		{"suppress", "unused suppression for goroutinescope"},
	}
	if len(diags) != len(wants) {
		for _, d := range diags {
			t.Logf("  %s: %s [%s]", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(wants))
	}
	// Order-insensitive claim: each want must be matched by a distinct
	// diagnostic.
	used := make([]bool, len(diags))
	for _, w := range wants {
		matched := false
		for i, d := range diags {
			if used[i] || d.Analyzer != w.analyzer || !strings.Contains(d.Message, w.needle) {
				continue
			}
			used[i] = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("no diagnostic from %q containing %q", w.analyzer, w.needle)
		}
	}

	// The suppressed spawn (spawnAllowed) must not appear: exactly two
	// goroutinescope findings survive out of the three spawns.
	goCount := 0
	for _, d := range diags {
		if d.Analyzer == "goroutinescope" {
			goCount++
		}
	}
	if goCount != 2 {
		t.Errorf("goroutinescope findings = %d, want 2 (spawnAllowed must be suppressed)", goCount)
	}

	// Scoping: when goroutinescope did NOT run, its directives must not
	// be reported as unused (single-analyzer runs would otherwise
	// miscount directives aimed at the rest of the suite). Malformed
	// directives are hygiene findings independent of any analyzer, so
	// the reasonless one still surfaces.
	diags2, err := lint.Run([]*lint.Analyzer{lint.NoiseSource}, []*lint.Package{pkg}, loader.Fset, lint.RunConfig{})
	if err != nil {
		t.Fatalf("running noisesource: %v", err)
	}
	for _, d := range diags2 {
		if strings.Contains(d.Message, "unused suppression") {
			t.Errorf("directive for an analyzer that did not run reported unused: %s", d.Message)
		}
	}
	if len(diags2) != 1 || !strings.Contains(diags2[0].Message, "malformed suppression") {
		t.Errorf("noisesource-only run: got %d diags, want exactly the malformed-directive finding", len(diags2))
	}
}
