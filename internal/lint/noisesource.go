package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
)

// rngPackage is the one package allowed to own raw randomness: every
// noise draw in the system must come from its seeded, splittable
// streams so experiments replay bit-for-bit and the per-query noise
// streams stay deterministic.
const rngPackage = "privrange/internal/stats"

// forbiddenRandImports are the entropy sources whose use outside
// rngPackage voids both determinism (replay) and the privacy
// accounting (an unseeded draw is an untracked noise source).
var forbiddenRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// seedSinkName matches functions and methods that accept a seed or
// construct a random stream; feeding them wall-clock time destroys
// reproducibility.
var seedSinkName = regexp.MustCompile(`(?i)(rng|seed|stream|source|split|child)`)

// NoiseSource forbids raw entropy outside internal/stats.
var NoiseSource = &Analyzer{
	Name: "noisesource",
	Doc: `forbid math/rand, math/rand/v2 and crypto/rand outside internal/stats,
and forbid time.Now()-derived values flowing into RNG/seed/stream constructors
anywhere: all randomness must come from stats.NewRNG and its Child streams so the
(α,δ)-guarantee's noise is deterministic, budget-tracked and replayable`,
	Run: runNoiseSource,
}

func runNoiseSource(pass *Pass) error {
	inStats := pass.Pkg.Path() == rngPackage
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if forbiddenRandImports[path] && !inStats {
				pass.Reportf(imp.Pos(), "import of %s outside %s: draw randomness from stats.NewRNG and RNG.Child so noise stays deterministic and budget-tracked", path, rngPackage)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if name == "" || !seedSinkName.MatchString(name) {
				return true
			}
			for _, arg := range call.Args {
				if pos, found := findTimeNow(pass, arg); found {
					pass.Reportf(pos, "time.Now()-derived seed passed to %s: wall-clock seeding breaks deterministic replay; derive seeds from config or RNG.Child", name)
				}
			}
			return true
		})
	}
	return nil
}

// calleeName returns the syntactic name of the function being called
// ("NewRNG", "Seed", ...), or "" for indirect calls.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// findTimeNow reports the position of a time.Now call nested anywhere
// in e.
func findTimeNow(pass *Pass, e ast.Expr) (pos token.Pos, found bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.TypesInfo, call); isFuncNamed(fn, "time", "Now") {
			pos = call.Pos()
			found = true
			return false
		}
		return true
	})
	return pos, found
}
