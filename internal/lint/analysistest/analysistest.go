// Package analysistest runs privlint analyzers over golden fixture
// packages and checks their diagnostics against `// want "regexp"`
// comments, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library alone (the same constraint that shapes
// internal/lint's loader: no module downloads).
//
// A fixture lives in internal/lint/testdata/src/<name>/ and is an
// ordinary Go package, except that the go tool never builds it
// (testdata is invisible to ./... patterns). Fixtures may import
// module packages — privrange/internal/market, /dp, /telemetry — so the
// golden cases exercise the analyzers against the real types they
// guard, not mocks.
//
// Expectations are end-of-line comments:
//
//	return fmt.Errorf("collect: %v", err) // want `error value formatted with %v`
//
// Every diagnostic must match a want on its line and every want must
// be matched by a diagnostic; mismatches in either direction fail the
// test.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privrange/internal/lint"
)

var (
	once      sync.Once
	loader    *lint.Loader
	module    []*lint.Package
	sentinels map[string]lint.Sentinel
	facts     *lint.FactStore
	initErr   error
)

// setup loads the whole module once, shared across tests: fixtures
// re-use the already-checked module packages, the sentinel table covers
// every package the errwrap analyzer needs to know about, and the fact
// store carries the module's serialized lock summaries for lockorder's
// cross-package rules.
func setup() {
	loader, initErr = lint.NewLoader(".")
	if initErr != nil {
		return
	}
	module, initErr = loader.Load("./...")
	if initErr != nil {
		return
	}
	sentinels = lint.CollectSentinels(module)
	facts, initErr = lint.ComputeFacts(module, loader.Fset)
}

// Run loads testdata/src/<name>, applies analyzer a to it, and asserts
// the diagnostics match the fixture's want comments exactly.
func Run(t *testing.T, a *lint.Analyzer, name string) {
	t.Helper()
	once.Do(setup)
	if initErr != nil {
		t.Fatalf("loading module: %v", initErr)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.LoadDir(dir, "privrange/internal/lint/testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	merged := make(map[string]lint.Sentinel, len(sentinels)+1)
	for k, v := range sentinels {
		merged[k] = v
	}
	for k, v := range lint.CollectSentinels([]*lint.Package{pkg}) {
		merged[k] = v
	}
	// The fixture joins the module's fact store so cross-package
	// summaries (lock edges, det hazards, atomic fields) flow into it —
	// and its own facts are added the same serialized way, proving the
	// fixture round trip too.
	if err := facts.Add(pkg, loader.Fset); err != nil {
		t.Fatalf("computing facts for fixture %s: %v", name, err)
	}
	diags, err := lint.Run([]*lint.Analyzer{a}, []*lint.Package{pkg}, loader.Fset, lint.RunConfig{Sentinels: merged, Facts: facts})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, name, err)
	}
	wants := parseWants(t, pkg)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		if w := claim(wants, pos.Filename, pos.Line, d.Message); w == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

// CleanModule asserts the full analyzer suite reports nothing on the
// module itself — the "make lint passes clean at tip" invariant,
// enforced by go test so it cannot rot silently.
func CleanModule(t *testing.T) {
	t.Helper()
	once.Do(setup)
	if initErr != nil {
		t.Fatalf("loading module: %v", initErr)
	}
	diags, err := lint.Run(lint.All(), module, loader.Fset, lint.RunConfig{Sentinels: sentinels, Facts: facts})
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants extracts `// want "re"` (or backquoted) comments from the
// fixture's files.
func parseWants(t *testing.T, pkg *lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				lit := strings.TrimSpace(strings.TrimPrefix(text, "want "))
				pattern, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v", loader.Fset.Position(c.Pos()), lit, err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", loader.Fset.Position(c.Pos()), pattern, err)
				}
				pos := loader.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// claim finds and marks the first unmatched want on the diagnostic's
// line whose regexp matches the message.
func claim(wants []*want, file string, line int, message string) *want {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(message) {
			w.matched = true
			return w
		}
	}
	return nil
}
