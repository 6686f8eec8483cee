package lint

import (
	"go/ast"
	"go/types"
)

// PrivacyBoundary flags raw per-node sample data or un-noised estimates
// reaching either exit of the broker: the market's released types, and
// the telemetry registry that the ops endpoint serves without privacy
// accounting.
//
// Sources of taint:
//   - any expression whose type holds sampling.Sample/SampleSet or
//     index.Index — the raw rank-annotated per-node data the
//     (α,δ)-guarantee says must never be released (the columnar index
//     is the same data in flat form);
//   - the un-noised estimates: (estimator.RankCounting).Estimate, the
//     baseline (estimator.BasicCounting).Estimate, and
//     (*core.Engine).EstimateOnly. All are broker-internal by contract
//     (EstimateOnly's doc says "It never leaves the broker");
//   - the out slice of (estimator.RankCounting).EstimateIndexBatch,
//     which the call fills with un-noised estimates;
//   - values derived from any of these: fields, elements and slices of
//     them, conversions, arithmetic, range variables, and variables
//     assigned from them.
//
// Taint has two levels. A value is raw when it is a sample container
// itself (behind any pointers, slices, arrays or map values), an
// un-noised estimate, or derived from one. It is a holder when it
// contains a container some other way — a struct field, a map key, a
// channel, a tuple member — or was read from such a holder. A variable
// takes the highest level over its assignments, and a selector its
// base's level.
//
// Sinks, one per exit:
//   - release: field values of market.Response and market.Receipt, the
//     two types that travel back to consumers. They refuse holder and
//     raw values alike: nothing read out of a struct that carries
//     samples may be sold.
//   - telemetry: every value or tag position of the telemetry API —
//     telemetry.L arguments, Label literal fields, Counter.Add,
//     Gauge.Set, Gauge.Add, Histogram.Observe/ObserveDuration,
//     Trace.Begin/Mark/End, the span-attribute positions Trace.Annotate
//     and SpanRecord.Annot (exported verbatim on /traces), and every
//     EventLog.Append argument. They refuse raw values only, so engine
//     snapshots can publish coverage and rate gauges read next to their
//     sample sets.
//
// The sanctioned path is not special-cased: taint does not propagate
// through function calls, so a value that went through
// dp.Mechanism.Perturb or (*core.Engine).Answer comes out clean — the
// release boundary is exactly the set of dp/core release calls.
var PrivacyBoundary = &Analyzer{
	Name: "privacyboundary",
	Doc: `flag flows of raw per-node samples or un-noised estimates out of
the broker: into market.Response / market.Receipt fields, where every
released value must pass through the dp release path (dp.Mechanism.Perturb
via core.Engine.Answer) and the accountant, and into telemetry label/value
positions (telemetry.L, Gauge.Set, Counter.Add, Histogram.Observe, Trace
marks, span annotations, EventLog.Append), which are scraped outside the
privacy boundary — either way the (α,δ)/ε′ privacy contract is silently void`,
	Run: runPrivacyBoundary,
}

const (
	samplingPkg  = "privrange/internal/sampling"
	estimatorPkg = "privrange/internal/estimator"
	indexPkg     = "privrange/internal/index"
	corePkg      = "privrange/internal/core"
	marketPkg    = "privrange/internal/market"
	telemetryPkg = "privrange/internal/telemetry"
)

// telemetrySinkArgs maps telemetry functions/methods ("Name" or
// "Recv.Name") to the argument indexes that must stay clean.
var telemetrySinkArgs = map[string][]int{
	"L":                         {0, 1},
	"Counter.Add":               {0},
	"Gauge.Set":                 {0},
	"Gauge.Add":                 {0},
	"Histogram.Observe":         {0},
	"Histogram.ObserveDuration": {0},
	"Trace.Begin":               {0},
	"Trace.Mark":                {0},
	"Trace.End":                 {0},
	"EventLog.Append":           {0, 1, 2, 3},
	"Trace.Annotate":            {0, 1},
	"SpanRecord.Annot":          {0, 1},
}

// taint is how much raw sample data a value carries; levels are ordered.
type taint uint8

const (
	clean taint = iota
	// holder: contains a sample container without being one, or was
	// read from such a value.
	holder
	// raw: a sample container, an un-noised estimate, or derived from
	// either.
	raw
)

func runPrivacyBoundary(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			t := &taintState{pass: pass, vars: make(map[*types.Var]taint)}
			// Propagate until no variable's level rises; bodies are
			// small, so the bound is a formality.
			for i := 0; i < 16; i++ {
				t.changed = false
				ast.Inspect(fd.Body, t.propagate)
				if !t.changed {
					break
				}
			}
			ast.Inspect(fd.Body, t.checkSinks)
		}
	}
	return nil
}

// taintState is the intraprocedural taint pass over one function body.
type taintState struct {
	pass    *Pass
	vars    map[*types.Var]taint
	changed bool
}

// propagate raises variables assigned from tainted expressions.
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
		if n.X != nil {
			lv := t.level(n.X)
			t.markVar(n.Key, lv)
			t.markVar(n.Value, lv)
		}
	case *ast.CallExpr:
		// EstimateIndexBatch fills its out argument with un-noised
		// estimates: the slice is tainted from the call onward.
		fn := calleeFunc(t.pass.TypesInfo, n)
		if isFuncNamed(fn, estimatorPkg, "RankCounting.EstimateIndexBatch") && len(n.Args) == 3 {
			t.markVar(n.Args[2], raw)
		}
	}
	return true
}

func (t *taintState) propagateAssign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			t.markVar(lhs[i], t.level(rhs[i]))
		}
	case len(rhs) == 1: // multi-value call / comma-ok
		lv := t.level(rhs[0])
		for _, l := range lhs {
			t.markVar(l, lv)
		}
	}
}

func (t *taintState) markVar(e ast.Expr, lv taint) {
	if e == nil || lv == clean {
		return
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := t.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = t.pass.TypesInfo.Uses[id]
	}
	if v, ok := obj.(*types.Var); ok && lv > t.vars[v] {
		t.vars[v] = lv
		t.changed = true
	}
}

// level reports how much raw sample data e carries.
func (t *taintState) level(e ast.Expr) taint {
	if e == nil {
		return clean
	}
	e = ast.Unparen(e)
	lv := clean
	if tv, ok := t.pass.TypesInfo.Types[e]; ok && tv.Type != nil {
		lv = typeTaint(tv.Type)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			lv = max(lv, t.vars[v])
		}
	case *ast.CallExpr:
		fn := calleeFunc(t.pass.TypesInfo, e)
		if isFuncNamed(fn, estimatorPkg, "RankCounting.Estimate") ||
			isFuncNamed(fn, estimatorPkg, "BasicCounting.Estimate") ||
			isFuncNamed(fn, corePkg, "Engine.EstimateOnly") {
			return raw
		}
		// Conversions of tainted values stay tainted.
		if len(e.Args) == 1 {
			if tv, ok := t.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
				lv = max(lv, t.level(e.Args[0]))
			}
		}
	case *ast.BinaryExpr:
		lv = max(lv, t.level(e.X), t.level(e.Y))
	case *ast.UnaryExpr:
		lv = max(lv, t.level(e.X))
	case *ast.StarExpr:
		lv = max(lv, t.level(e.X))
	case *ast.IndexExpr:
		lv = max(lv, t.level(e.X))
	case *ast.SliceExpr:
		lv = max(lv, t.level(e.X))
	case *ast.SelectorExpr:
		// A field takes its base's level: a clean sibling of a sample
		// container is a holder, never raw.
		lv = max(lv, t.level(e.X))
	}
	return lv
}

// typeTaint classifies a type: raw when it is a sample container behind
// any pointers, slices, arrays or map values; holder when it contains
// one any other way (a struct field, a map key, a channel element, a
// tuple member). Function signatures are not looked through.
func typeTaint(ty types.Type) taint {
	memo := make(map[types.Type]taint)
	var walk func(ty types.Type) taint
	walk = func(ty types.Type) taint {
		if ty == nil {
			return clean
		}
		if lv, ok := memo[ty]; ok {
			return lv
		}
		memo[ty] = clean // a type reached again while walking it adds nothing
		lv := clean
		switch u := ty.(type) {
		case *types.Named:
			if obj := u.Obj(); obj.Pkg() != nil &&
				(obj.Pkg().Path() == samplingPkg && (obj.Name() == "Sample" || obj.Name() == "SampleSet") ||
					obj.Pkg().Path() == indexPkg && obj.Name() == "Index") {
				lv = raw
			} else {
				lv = walk(u.Underlying())
			}
		case *types.Pointer:
			lv = walk(u.Elem())
		case *types.Slice:
			lv = walk(u.Elem())
		case *types.Array:
			lv = walk(u.Elem())
		case *types.Map:
			lv = max(walk(u.Elem()), min(walk(u.Key()), holder))
		case *types.Chan:
			lv = min(walk(u.Elem()), holder)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				lv = max(lv, min(walk(u.Field(i).Type()), holder))
			}
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				lv = max(lv, min(walk(u.At(i).Type()), holder))
			}
		}
		memo[ty] = lv
		return lv
	}
	return walk(ty)
}

// checkSinks reports tainted expressions reaching either exit: holder
// or raw values assigned into Response/Receipt fields (composite literal
// or field write), and raw values passed to telemetry recording
// positions.
func (t *taintState) checkSinks(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CompositeLit:
		tv, ok := t.pass.TypesInfo.Types[n]
		if !ok {
			return true
		}
		release, label := isMarketReleaseType(tv.Type), isNamed(tv.Type, telemetryPkg, "Label")
		if !release && !label {
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
			switch lv := t.level(val); {
			case release && lv >= holder:
				t.reportRelease(val, field, tv.Type)
			case label && lv == raw:
				t.reportTelemetry(val, "Label")
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
			if t.level(rhs) >= holder {
				t.reportRelease(rhs, sel.Sel.Name, tv.Type)
			}
		}
	case *ast.CallExpr:
		fn := calleeFunc(t.pass.TypesInfo, n)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != telemetryPkg {
			return true
		}
		for name, argIdx := range telemetrySinkArgs {
			if !isFuncNamed(fn, telemetryPkg, name) {
				continue
			}
			for _, i := range argIdx {
				if i < len(n.Args) && t.level(n.Args[i]) == raw {
					t.reportTelemetry(n.Args[i], name)
				}
			}
		}
	}
	return true
}

func (t *taintState) reportRelease(at ast.Expr, field string, sink types.Type) {
	where := sink.String()
	if field != "" {
		where += "." + field
	}
	t.pass.Reportf(at.Pos(), "raw per-node sample data or un-noised estimate flows into %s: released values must pass through the dp release path (core.Engine.Answer / dp.Mechanism.Perturb) and the accountant", where)
}

func (t *taintState) reportTelemetry(at ast.Expr, sink string) {
	t.pass.Reportf(at.Pos(), "raw per-node sample data or un-noised estimate flows into telemetry.%s: the metrics registry is scraped outside the privacy boundary, record only released aggregates, operational counts and constant tags", sink)
}

// isMarketReleaseType reports whether t (possibly behind pointers) is
// market.Response or market.Receipt.
func isMarketReleaseType(t types.Type) bool {
	return isNamed(t, marketPkg, "Response") || isNamed(t, marketPkg, "Receipt")
}

// isNamed reports whether t, behind any pointers, is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
