package lint

import (
	"go/ast"
	"go/types"
)

// TelemetryTaint flags raw per-node sample data or un-noised estimates
// flowing into telemetry recording positions. The telemetry registry
// lives strictly outside the privacy boundary — its ops endpoint is
// scraped without any privacy accounting — so a single tainted label
// value or gauge sample would silently void the ε′ contract for every
// record it derives from.
//
// Sources of taint (the same set the privacyboundary analyzer guards):
//   - expressions whose type is a raw sample container —
//     sampling.Sample/SampleSet or index.Index (behind any pointers,
//     slices, arrays or maps);
//   - the un-noised estimates: (estimator.RankCounting).Estimate,
//     (estimator.BasicCounting).Estimate, (*core.Engine).EstimateOnly,
//     and the out slice filled by RankCounting.EstimateIndexBatch;
//   - scalars extracted from a direct container (a field, element or
//     slice of one) and arithmetic over any tainted value.
//
// Sinks: every value or tag position of the telemetry API —
// telemetry.L arguments, Label literal fields, Counter.Add, Gauge.Set,
// Gauge.Add, Histogram.Observe/ObserveDuration, Trace.Begin/Mark/End,
// the span-attribute positions Trace.Annotate and SpanRecord.Annot
// (span annotations are exported verbatim on /traces), and every
// EventLog.Append argument.
//
// Unlike privacyboundary, the pass is field-sensitive on struct
// selectors: a clean sibling field of a struct that also holds sample
// sets (e.g. a snapshot's coverage next to its sets) is NOT tainted —
// only the container-typed fields themselves and the scalars pulled
// out of them are. Engine snapshots must be able to publish coverage
// and rate gauges while their sample sets stay forbidden.
var TelemetryTaint = &Analyzer{
	Name: "telemetrytaint",
	Doc: `flag flows of raw per-node samples or un-noised estimates into
telemetry label/value positions (telemetry.L, Gauge.Set, Counter.Add,
Histogram.Observe, Trace marks, span annotations via Trace.Annotate or
SpanRecord.Annot, EventLog.Append): the metrics registry and /traces are
scraped outside the privacy boundary, so only released aggregates,
operational counts and constant tags may be recorded`,
	Run: runTelemetryTaint,
}

const telemetryPkg = "privrange/internal/telemetry"

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
	// Distributed-span attribute positions: span annotations are
	// exported verbatim on /traces, outside the privacy boundary.
	"Trace.Annotate":   {0, 1},
	"SpanRecord.Annot": {0, 1},
}

func runTelemetryTaint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			t := &teleTaint{pass: pass, vars: make(map[*types.Var]bool)}
			for i := 0; i < 16; i++ {
				before := len(t.vars)
				ast.Inspect(fd.Body, t.propagate)
				if len(t.vars) == before {
					break
				}
			}
			ast.Inspect(fd.Body, t.checkSinks)
		}
	}
	return nil
}

type teleTaint struct {
	pass *Pass
	vars map[*types.Var]bool
}

// propagate marks variables assigned from value-tainted expressions.
func (t *teleTaint) propagate(n ast.Node) bool {
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
		fn := calleeFunc(t.pass.TypesInfo, n)
		if isFuncNamed(fn, estimatorPkg, "RankCounting.EstimateIndexBatch") && len(n.Args) == 3 {
			t.markVar(n.Args[2])
		}
	}
	return true
}

func (t *teleTaint) propagateAssign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if t.tainted(rhs[i]) {
				t.markVar(lhs[i])
			}
		}
	case len(rhs) == 1:
		if t.tainted(rhs[0]) {
			for _, l := range lhs {
				t.markVar(l)
			}
		}
	}
}

func (t *teleTaint) markVar(e ast.Expr) {
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

// directContainer reports whether ty — behind pointers, slices, arrays
// and map values, but NOT through struct fields — is one of the raw
// sample container types. The struct-field exclusion is the analyzer's
// field-sensitivity: a struct that merely holds a container is not
// itself poisonous, only the container field is.
func directContainer(ty types.Type) bool {
	seen := make(map[types.Type]bool)
	for ty != nil && !seen[ty] {
		seen[ty] = true
		switch u := ty.(type) {
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() != nil {
				switch {
				case obj.Pkg().Path() == samplingPkg && (obj.Name() == "Sample" || obj.Name() == "SampleSet"):
					return true
				case obj.Pkg().Path() == indexPkg && obj.Name() == "Index":
					return true
				}
			}
			ty = u.Underlying()
		case *types.Pointer:
			ty = u.Elem()
		case *types.Slice:
			ty = u.Elem()
		case *types.Array:
			ty = u.Elem()
		case *types.Map:
			ty = u.Elem()
		default:
			return false
		}
	}
	return false
}

// tainted reports whether e carries raw sample data or a value derived
// from it.
func (t *teleTaint) tainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)
	// An expression that IS a raw container (directly, not a struct
	// holding one) is tainted wherever it appears.
	if tv, ok := t.pass.TypesInfo.Types[e]; ok && tv.Type != nil && directContainer(tv.Type) {
		return true
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
		// Field-sensitive: a selector is tainted only when its base is a
		// container itself or a value-tainted expression — never merely
		// because a sibling field of the base holds a container.
		return t.tainted(e.X)
	}
	return false
}

// checkSinks reports tainted expressions reaching telemetry recording
// positions.
func (t *teleTaint) checkSinks(n ast.Node) bool {
	switch n := n.(type) {
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
				if i < len(n.Args) && t.tainted(n.Args[i]) {
					t.report(n.Args[i], name)
				}
			}
		}
	case *ast.CompositeLit:
		tv, ok := t.pass.TypesInfo.Types[n]
		if !ok || !isTelemetryLabelType(tv.Type) {
			return true
		}
		for _, elt := range n.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if t.tainted(val) {
				t.report(val, "Label")
			}
		}
	}
	return true
}

func (t *teleTaint) report(at ast.Expr, sink string) {
	t.pass.Reportf(at.Pos(), "raw per-node sample data or un-noised estimate flows into telemetry.%s: the metrics registry is scraped outside the privacy boundary, record only released aggregates, operational counts and constant tags", sink)
}

// isTelemetryLabelType reports whether ty (behind pointers) is
// telemetry.Label.
func isTelemetryLabelType(ty types.Type) bool {
	for {
		ptr, ok := ty.(*types.Pointer)
		if !ok {
			break
		}
		ty = ptr.Elem()
	}
	named, ok := ty.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == telemetryPkg && obj.Name() == "Label"
}
