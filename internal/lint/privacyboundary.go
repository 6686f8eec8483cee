package lint

import (
	"go/ast"
	"go/types"
)

// PrivacyBoundary flags raw per-node sample data flowing into the
// market's released types without passing through the dp release path.
//
// Sources of taint:
//   - any expression whose type contains sampling.Sample/SampleSet or
//     index.Index — the raw rank-annotated per-node data the
//     (α,δ)-guarantee says must never be released (the columnar index
//     is the same data in flat form);
//   - the un-noised estimates: (estimator.RankCounting).Estimate, the
//     baseline (estimator.BasicCounting).Estimate, and
//     (*core.Engine).EstimateOnly. All are broker-internal by contract
//     (EstimateOnly's doc says "It never leaves the broker");
//   - the out slice of (estimator.RankCounting).EstimateIndexBatch,
//     which the call fills with un-noised estimates.
//
// Sinks: field values of market.Response and market.Receipt, the two
// types that travel back to consumers.
//
// The sanctioned path is not special-cased: taint does not propagate
// through function calls, so a value that went through
// dp.Mechanism.Perturb or (*core.Engine).Answer comes out clean — the
// release boundary is exactly the set of dp/core release calls.
var PrivacyBoundary = &Analyzer{
	Name: "privacyboundary",
	Doc: `flag flows of raw per-node samples or un-noised estimates into
market.Response / market.Receipt fields: every released value must pass
through the dp release path (dp.Mechanism.Perturb via core.Engine.Answer)
and the accountant, or the (α,δ)/ε′ privacy contract is silently void`,
	Run: runPrivacyBoundary,
}

const (
	samplingPkg  = "privrange/internal/sampling"
	estimatorPkg = "privrange/internal/estimator"
	indexPkg     = "privrange/internal/index"
	corePkg      = "privrange/internal/core"
	marketPkg    = "privrange/internal/market"
)

func runPrivacyBoundary(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPrivacyFlows(pass, fd.Body)
		}
	}
	return nil
}

// checkPrivacyFlows runs the intraprocedural taint pass over one
// function body and reports tainted expressions reaching sink fields.
func checkPrivacyFlows(pass *Pass, body *ast.BlockStmt) {
	t := &taintState{pass: pass, vars: make(map[*types.Var]bool)}
	// Propagate until the tainted-variable set stops growing; bodies
	// are small, so the bound is a formality.
	for i := 0; i < 16; i++ {
		before := len(t.vars)
		ast.Inspect(body, t.propagate)
		if len(t.vars) == before {
			break
		}
	}
	ast.Inspect(body, t.checkSinks)
}

type taintState struct {
	pass *Pass
	vars map[*types.Var]bool
}

// propagate marks variables assigned from tainted expressions.
func (t *taintState) propagate(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.propagateAssign(n.Lhs, n.Rhs)
	case *ast.ValueSpec:
		var lhs []ast.Expr
		for _, name := range n.Names {
			lhs = append(lhs, name)
		}
		t.propagateAssign(lhs, n.Values)
	case *ast.RangeStmt:
		if n.X != nil && t.tainted(n.X) {
			t.markVar(n.Key)
			t.markVar(n.Value)
		}
	case *ast.CallExpr:
		// EstimateIndexBatch fills its out argument with un-noised
		// estimates: the slice is tainted from the call onward.
		fn := calleeFunc(t.pass.TypesInfo, n)
		if isFuncNamed(fn, estimatorPkg, "RankCounting.EstimateIndexBatch") && len(n.Args) == 3 {
			t.markVar(n.Args[2])
		}
	}
	return true
}

func (t *taintState) propagateAssign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if t.tainted(rhs[i]) {
				t.markVar(lhs[i])
			}
		}
	case len(rhs) == 1: // multi-value call / comma-ok
		if t.tainted(rhs[0]) {
			for _, l := range lhs {
				t.markVar(l)
			}
		}
	}
}

func (t *taintState) markVar(e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := t.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = t.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok {
		t.vars[v] = true
	}
}

// tainted reports whether e carries raw sample data or an un-noised
// estimate.
func (t *taintState) tainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)
	// Type-level taint: raw sample containers are tainted wherever
	// they appear.
	if tv, ok := t.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		if typeContains(tv.Type, samplingPkg, "Sample") || typeContains(tv.Type, samplingPkg, "SampleSet") ||
			typeContains(tv.Type, indexPkg, "Index") {
			return true
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return t.vars[v]
		}
	case *ast.CallExpr:
		fn := calleeFunc(t.pass.TypesInfo, e)
		if isFuncNamed(fn, estimatorPkg, "RankCounting.Estimate") ||
			isFuncNamed(fn, estimatorPkg, "BasicCounting.Estimate") ||
			isFuncNamed(fn, corePkg, "Engine.EstimateOnly") {
			return true
		}
		// Conversions of tainted values stay tainted.
		if len(e.Args) == 1 {
			if tv, ok := t.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
				return t.tainted(e.Args[0])
			}
		}
	case *ast.BinaryExpr:
		return t.tainted(e.X) || t.tainted(e.Y)
	case *ast.UnaryExpr:
		return t.tainted(e.X)
	case *ast.StarExpr:
		return t.tainted(e.X)
	case *ast.IndexExpr:
		return t.tainted(e.X)
	case *ast.SliceExpr:
		return t.tainted(e.X)
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted.
		return t.tainted(e.X)
	}
	return false
}

// checkSinks reports tainted expressions assigned into Response or
// Receipt fields, via composite literal or field write.
func (t *taintState) checkSinks(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CompositeLit:
		tv, ok := t.pass.TypesInfo.Types[n]
		if !ok || !isMarketReleaseType(tv.Type) {
			return true
		}
		for _, elt := range n.Elts {
			val := elt
			field := ""
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
				if id, ok := kv.Key.(*ast.Ident); ok {
					field = id.Name
				}
			}
			if t.tainted(val) {
				t.report(val, field, tv.Type)
			}
		}
	case *ast.AssignStmt:
		for i, l := range n.Lhs {
			sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			tv, ok := t.pass.TypesInfo.Types[sel.X]
			if !ok || !isMarketReleaseType(tv.Type) {
				continue
			}
			rhs := n.Rhs[0]
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			}
			if t.tainted(rhs) {
				t.report(rhs, sel.Sel.Name, tv.Type)
			}
		}
	}
	return true
}

func (t *taintState) report(at ast.Expr, field string, sink types.Type) {
	where := sink.String()
	if field != "" {
		where += "." + field
	}
	t.pass.Reportf(at.Pos(), "raw per-node sample data or un-noised estimate flows into %s: released values must pass through the dp release path (core.Engine.Answer / dp.Mechanism.Perturb) and the accountant", where)
}

// isMarketReleaseType reports whether t (possibly behind pointers) is
// market.Response or market.Receipt.
func isMarketReleaseType(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != marketPkg {
		return false
	}
	return obj.Name() == "Response" || obj.Name() == "Receipt"
}
