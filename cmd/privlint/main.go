// Command privlint runs the repo's custom static-analysis suite: six
// analyzers that mechanically enforce the privacy-boundary, noise-source,
// budget-float, lock-ordering, goroutine-discipline and error-wrapping
// invariants DESIGN.md §8 catalogs. It is built only on the standard
// library, so it compiles and runs offline with nothing but the Go
// toolchain.
//
// Usage:
//
//	privlint [-list] [-json] [packages]
//
// With no arguments it lints ./... relative to the enclosing module.
// Test files are not linted (go vet covers their basics); the suite
// targets the production pipeline the privacy contract rides on.
// It exits non-zero when any analyzer reports a finding.
//
// -json emits the findings as a deterministic machine-readable report
// (sorted, one object per finding plus a summary header) so lint output
// can be diffed across commits in results/. The exit status is the same
// as the human-readable mode.
//
// Findings can be suppressed at the offending line with
// `//lint:allow <analyzer> <reason>`; the reason is mandatory, and
// directives that suppress nothing are findings themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"privrange/internal/lint"
)

// jsonReport is the -json output schema. Versioned so results/ diffs
// survive schema growth.
type jsonReport struct {
	Version   int           `json:"version"`
	Analyzers []string      `json:"analyzers"`
	Packages  int           `json:"packages"`
	Findings  []jsonFinding `json:"findings"`
}

type jsonFinding struct {
	Position string `json:"position"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a machine-readable JSON report")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: privlint [-list] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	// Module-wide facts must span the whole module even when linting a
	// subset: sentinel re-definitions, lock-order edges, determinism
	// hazards and atomic fields all cross package boundaries.
	all := pkgs
	if modulePkgs, err := loader.Load("./..."); err == nil {
		all = modulePkgs
	}
	sentinels := lint.CollectSentinels(all)
	facts, err := lint.ComputeFacts(all, loader.Fset)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Run(lint.All(), pkgs, loader.Fset, lint.RunConfig{Sentinels: sentinels, Facts: facts})
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		report := jsonReport{
			Version:  1,
			Packages: len(pkgs),
		}
		for _, a := range lint.All() {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		report.Findings = make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				Position: loader.Fset.Position(d.Pos).String(),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "privlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "privlint:", err)
	os.Exit(2)
}
