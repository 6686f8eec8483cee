// Package lint implements privlint, the repo's in-tree static-analysis
// suite. It mirrors the golang.org/x/tools/go/analysis architecture —
// small single-purpose Analyzers running over type-checked packages —
// but is built entirely on the standard library (go/ast, go/parser,
// go/types) so the module stays dependency-free and the linter builds
// offline with nothing but the Go toolchain.
//
// Each analyzer mechanizes one invariant that DESIGN.md previously
// enforced by prose alone; DESIGN.md §8 catalogs the mapping from
// analyzer to invariant to the paper/PR section it protects. The
// cmd/privlint multichecker runs the whole suite and `make lint` wires
// it into the pre-merge gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// An Analyzer describes one lint pass: a named, documented invariant
// check executed against a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -list output. It
	// must be a valid identifier.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the analyzer against one package, reporting
	// violations through the pass. A returned error aborts the whole
	// lint run (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a type-checked package and the
// module-wide facts shared by the suite.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions for every loaded package, targets and
	// dependencies alike.
	Fset *token.FileSet
	// Files holds the package's parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records the type-checker's findings for Files.
	TypesInfo *types.Info
	// Sentinels maps each package-level `var ErrX = errors.New(msg)`
	// declared anywhere in the module to its sentinel description,
	// keyed by message text. Analyzers use it to spot re-definitions.
	Sentinels map[string]Sentinel
	// Facts holds the serialized cross-package lock summaries (lock
	// acquisitions, ordering edges, blocking operations) of every package
	// the runner has processed, including the target's import closure.
	// May be nil for callers that opt out of the facts layer.
	Facts *FactStore
	// Loaded is the loader's view of the target package (source files,
	// directory, type info) — the same value handed to ComputeFacts, so
	// analyzers and the facts layer always analyze identical input.
	Loaded *Package

	report func(Diagnostic)
}

// Sentinel describes one package-level sentinel error declaration.
type Sentinel struct {
	// Qualified is the pkgpath-qualified variable name, e.g.
	// "privrange/internal/iot.ErrPartialRound".
	Qualified string
	// Message is the errors.New argument.
	Message string
	// Pos locates the canonical errors.New call so the definition site
	// itself is never flagged as a re-definition.
	Pos token.Pos
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// indirect calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isFuncNamed reports whether fn is the named function or method of the
// given package path, matching either "Name" or "Recv.Name".
func isFuncNamed(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		recvName := ""
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recvName = named.Obj().Name()
		}
		return recvName+"."+fn.Name() == name
	}
	return fn.Name() == name
}

// isFloat reports whether t is a floating-point type (or an untyped
// float constant type).
func isFloat(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isZeroLiteral reports whether e is the literal constant 0 (any
// numeric spelling), the conventional sentinel for "unset/disabled"
// that tolerance rules deliberately exempt.
func isZeroLiteral(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// errorInterface is the universe error type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is exactly error or implements it.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) || types.Implements(types.NewPointer(t), errorInterface)
}

// sentinelVarName matches the naming convention for package-level
// sentinel errors (ErrPartialRound, ErrInfeasible, ...).
var sentinelVarName = regexp.MustCompile(`^Err[A-Z]`)

// isSentinelError reports whether e is a reference to a package-level
// sentinel error variable following the Err* convention.
func isSentinelError(info *types.Info, e ast.Expr) (types.Object, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	obj := info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !sentinelVarName.MatchString(v.Name()) {
		return nil, false
	}
	// Package-level: parent scope is the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	if !isErrorType(v.Type()) {
		return nil, false
	}
	return v, true
}
