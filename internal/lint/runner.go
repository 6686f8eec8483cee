package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
)

// CollectSentinels scans packages for the repo's sentinel-error
// convention — package-level `var ErrX = errors.New("msg")` — and
// returns the module-wide table keyed by message text. The errwrap
// analyzer uses it to catch re-definitions that would silently fork an
// errors.Is identity.
func CollectSentinels(pkgs []*Package) map[string]Sentinel {
	out := make(map[string]Sentinel)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, name := range vs.Names {
						if !sentinelVarName.MatchString(name.Name) {
							continue
						}
						call, ok := vs.Values[i].(*ast.CallExpr)
						if !ok || len(call.Args) != 1 {
							continue
						}
						if fn := calleeFunc(pkg.Info, call); !isFuncNamed(fn, "errors", "New") {
							continue
						}
						lit, ok := call.Args[0].(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						msg, err := strconv.Unquote(lit.Value)
						if err != nil {
							continue
						}
						out[msg] = Sentinel{
							Qualified: pkg.PkgPath + "." + name.Name,
							Message:   msg,
							Pos:       call.Pos(),
						}
					}
				}
			}
		}
	}
	return out
}

// RunConfig carries the module-wide state shared by every pass in a
// run.
type RunConfig struct {
	// Sentinels should cover the whole module (CollectSentinels over all
	// loaded packages), not just the packages being linted, so
	// cross-package sentinel re-definitions are caught.
	Sentinels map[string]Sentinel
	// Facts holds the serialized per-package summaries (ComputeFacts over
	// the module). May be nil: fact-consuming analyzers then see only
	// their own package, which is how the loader bootstraps.
	Facts *FactStore
}

// Run executes every analyzer over every package, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by
// position. Suppression hygiene findings (malformed or unused
// directives) come back under the pseudo-analyzer "suppress".
func Run(analyzers []*Analyzer, pkgs []*Package, fset *token.FileSet, cfg RunConfig) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	var allows []*allowDirective
	for _, pkg := range pkgs {
		pkgAllows, bad := collectAllows(pkg, fset)
		allows = append(allows, pkgAllows...)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			ran[a.Name] = true
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Sentinels: cfg.Sentinels,
				Facts:     cfg.Facts,
				Loaded:    pkg,
				report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	diags = applySuppressions(diags, allows, ran, fset)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full privlint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BudgetFloat,
		ErrWrap,
		GoroutineScope,
		LockOrder,
		NoiseSource,
		PrivacyBoundary,
	}
}
