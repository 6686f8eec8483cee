package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DetOrder guards the bit-identical release invariant (DESIGN.md §6 and
// §11): a released answer must be a deterministic function of the
// collected samples and the noise stream, across shard counts and
// across runs. In the functions reachable from the configured
// deterministic-path roots (core answer/reduce, estimator set and flat
// kernels, shard composition, index build) it flags:
//
//   - `range` over a map — Go randomizes iteration order — unless the
//     loop follows the sorted-snapshot discipline (only order-neutral
//     effects: map-index stores, integer accumulation, deletes, and
//     appends whose target is sorted before use later in the same
//     function);
//   - time.Now / time.Since — wall-clock reads leak scheduling into
//     answers;
//   - math/rand top-level draws — the global source is shared and
//     seed-racy; deterministic paths must draw from the engine's
//     seeded noise stream.
//
// Hazards propagate: a root calling a same-package helper inherits the
// helper's hazards, and calls into other packages consult the callee's
// serialized DetHazards facts. Telemetry and iot collection are
// deliberately outside the propagation set — observability timestamps
// do not feed answer bytes.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc: `flag nondeterminism (unordered map ranges, wall-clock reads, global
math/rand draws, order-dependent accumulation) in the deterministic
release-and-reduce paths, with a sorted-snapshot allowlist`,
	Run: runDetOrder,
}

// detRoots names the entry points of the deterministic release paths,
// per package. Reporting is scoped to functions reachable from these
// within their package; everything else in the package may freely read
// clocks. A root that names no function in its package is itself a
// finding: renaming or deleting an entry point must not silently shrink
// the checked set.
var detRoots = map[string][]string{
	"privrange/internal/core": {
		"Engine.Answer", "Engine.AnswerBatch", "Engine.AnswerBatchSerial", "Engine.EstimateOnly",
		"Engine.answerBatchSerial",
		"rankEstimateBatch",
	},
	"privrange/internal/estimator": {
		"BasicCounting.Estimate", "RankCounting.Estimate", "RankCounting.EstimateIndexBatch",
	},
	"privrange/internal/shard": {
		"Cluster.Snapshot", "Cluster.recomposeLocked", "Ring.Owner",
	},
	"privrange/internal/index": {
		"Build",
	},
	// Fixture hooks for the golden tests.
	"privrange/internal/lint/testdata/src/detorder": {
		"Release",
	},
	"privrange/internal/lint/testdata/src/detorderroots": {
		"Release", "Engine.Release", "Engine.Vanished",
	},
}

// detExcludedPackages are never consulted for cross-package hazard
// propagation: their wall-clock use is observability, not answer
// content.
var detExcludedPackages = map[string]bool{
	"privrange/internal/telemetry": true,
	"privrange/internal/iot":       true,
}

type detHazard struct {
	pos  token.Pos
	desc string
}

type detCallHazard struct {
	pos     token.Pos
	callee  string
	hazards []string
}

// detResult is everything analyzeDet learns about one package.
type detResult struct {
	// summaries: transitive hazard strings per function key, for facts.
	summaries map[string][]string
	// own: hazards detected directly in each function's body.
	own map[string][]detHazard
	// calls: cross-package call sites whose callee facts carry hazards.
	calls map[string][]detCallHazard
	// sameCalls: same-package callees, for reachability and propagation.
	sameCalls map[string][]string
}

type detAnalysis struct {
	pkg   *Package
	fset  *token.FileSet
	facts *FactStore
	res   *detResult
	memo  map[string][]string
	busy  map[string]bool
}

// analyzeDet scans every function in pkg for determinism hazards and
// computes transitive summaries (same-package closure plus imported
// DetHazards facts). Shared by the facts layer and the detorder pass.
func analyzeDet(pkg *Package, fset *token.FileSet, facts *FactStore) *detResult {
	da := &detAnalysis{
		pkg:   pkg,
		fset:  fset,
		facts: facts,
		res: &detResult{
			summaries: make(map[string][]string),
			own:       make(map[string][]detHazard),
			calls:     make(map[string][]detCallHazard),
			sameCalls: make(map[string][]string),
		},
		memo: make(map[string][]string),
		busy: make(map[string]bool),
	}
	var keys []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := funcDeclKey(fd)
			keys = append(keys, key)
			da.scanFunc(key, fd)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		da.res.summaries[key] = da.summary(key)
	}
	return da.res
}

// scanFunc records the direct hazards, cross-package hazard calls, and
// same-package callees of one function.
func (da *detAnalysis) scanFunc(key string, fd *ast.FuncDecl) {
	info := da.pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if !da.rangeAllowed(n, fd) {
						da.res.own[key] = append(da.res.own[key], detHazard{
							pos: n.Pos(),
							desc: fmt.Sprintf("range over map %s: Go randomizes map iteration order; take a sorted snapshot of the keys first",
								types.ExprString(n.X)),
						})
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if desc := detHazardCall(fn); desc != "" {
				da.res.own[key] = append(da.res.own[key], detHazard{pos: n.Pos(), desc: desc})
				return true
			}
			if fn.Pkg() == nil {
				return true
			}
			if fn.Pkg() == da.pkg.Types {
				if fd2 := da.findDecl(fn); fd2 != "" {
					da.res.sameCalls[key] = append(da.res.sameCalls[key], fd2)
				}
				return true
			}
			// Cross-package: consult serialized facts unless excluded.
			path := fn.Pkg().Path()
			if detExcludedPackages[path] || da.facts == nil {
				return true
			}
			if pf, ok := da.facts.ForPackage(path); ok {
				name := factFuncName(fn)
				if ff, ok := pf.Funcs[name]; ok && len(ff.DetHazards) > 0 {
					da.res.calls[key] = append(da.res.calls[key], detCallHazard{
						pos:     n.Pos(),
						callee:  path + "." + name,
						hazards: ff.DetHazards,
					})
				}
			}
		}
		return true
	})
}

// findDecl maps a same-package *types.Func back to its summary key.
func (da *detAnalysis) findDecl(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if named, ok := derefNamed(sig.Recv().Type()); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	return fn.Name()
}

// detHazardCall classifies direct hazard calls.
func detHazardCall(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name() + ": wall-clock reads make released bytes depend on scheduling"
		}
	case "math/rand", "math/rand/v2":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			return "math/rand." + fn.Name() + ": the global source is shared and seed-racy; draw from the engine's seeded noise stream"
		}
	}
	return ""
}

// summary computes (memoized) the transitive hazard list of one
// function: its own hazards, its cross-package call hazards, and the
// summaries of its same-package callees.
func (da *detAnalysis) summary(key string) []string {
	if s, ok := da.memo[key]; ok {
		return s
	}
	if da.busy[key] {
		return nil
	}
	da.busy[key] = true
	seen := make(map[string]bool)
	var out []string
	add := func(h string) {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	for _, h := range da.res.own[key] {
		add(da.fset.Position(h.pos).String() + ": " + h.desc)
	}
	for _, c := range da.res.calls[key] {
		for _, h := range c.hazards {
			add("via " + shortName(c.callee) + ": " + h)
		}
	}
	for _, callee := range da.res.sameCalls[key] {
		for _, h := range da.summary(callee) {
			add(h)
		}
	}
	delete(da.busy, key)
	sort.Strings(out)
	da.memo[key] = out
	return out
}

// rangeAllowed implements the sorted-snapshot allowlist for a map
// range: the body may only have order-neutral effects, and any slice it
// appends to must be sorted later in the same function before use.
func (da *detAnalysis) rangeAllowed(rs *ast.RangeStmt, fd *ast.FuncDecl) bool {
	var needSort []*types.Var
	if !da.rangeBodyOK(rs.Body.List, &needSort) {
		return false
	}
	for _, v := range needSort {
		if !da.sortedAfter(v, rs.End(), fd) {
			return false
		}
	}
	return true
}

// rangeBodyOK checks that statements inside a map-range body are
// order-neutral. Appends to outer slices are collected into needSort
// for the sorted-later check.
func (da *detAnalysis) rangeBodyOK(stmts []ast.Stmt, needSort *[]*types.Var) bool {
	info := da.pkg.Info
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if i < len(s.Rhs) {
					rhs = s.Rhs[i]
				}
				if rhs != nil && !da.exprOrderNeutral(rhs) {
					return false
				}
				switch {
				case s.Tok == token.DEFINE:
					// Locals scoped to the iteration are order-free.
				case isMapIndexStore(info, lhs):
					// m[k] = v commutes across iterations (same-key overwrite
					// requires the key to repeat, impossible in one range).
				case s.Tok == token.ASSIGN && isAppendTo(info, lhs, rhs):
					if v := exprVar(info, lhs); v != nil {
						*needSort = append(*needSort, v)
					} else {
						return false
					}
				case isIntegerCompound(info, s.Tok, lhs):
					// x += n on integers is associative and commutative.
				default:
					return false
				}
			}
		case *ast.IncDecStmt:
			if !isIntegerExpr(info, s.X) {
				return false
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltinCall(info, call, "delete") {
				return false
			}
		case *ast.IfStmt:
			if s.Init != nil || !da.exprOrderNeutral(s.Cond) {
				return false
			}
			if !da.rangeBodyOK(s.Body.List, needSort) {
				return false
			}
			if s.Else != nil {
				eb, ok := s.Else.(*ast.BlockStmt)
				if !ok || !da.rangeBodyOK(eb.List, needSort) {
					return false
				}
			}
		case *ast.BlockStmt:
			if !da.rangeBodyOK(s.List, needSort) {
				return false
			}
		case *ast.BranchStmt:
			if s.Tok != token.CONTINUE && s.Tok != token.BREAK {
				return false
			}
		case *ast.DeclStmt:
			// Local declarations introduce iteration-scoped state.
		default:
			return false
		}
	}
	return true
}

// exprOrderNeutral: the expression performs no calls other than
// len/cap/min/max (pure reads commute across iterations).
func (da *detAnalysis) exprOrderNeutral(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			if !isBuiltinCall(da.pkg.Info, call, "len", "cap", "min", "max", "append") {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

func isMapIndexStore(info *types.Info, lhs ast.Expr) bool {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isAppendTo reports whether rhs is append(lhs, ...).
func isAppendTo(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
		return false
	}
	lv := exprVar(info, lhs)
	av := exprVar(info, call.Args[0])
	return lv != nil && lv == av
}

func exprVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

func isIntegerCompound(info *types.Info, tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	return isIntegerExpr(info, lhs)
}

func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	for _, n := range names {
		if id.Name == n {
			return true
		}
	}
	return false
}

// sortedAfter reports whether v is passed to a sort.*/slices.Sort* call
// after pos within fd.
func (da *detAnalysis) sortedAfter(v *types.Var, pos token.Pos, fd *ast.FuncDecl) bool {
	info := da.pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkgPath := fn.Pkg().Path()
		if pkgPath != "sort" && pkgPath != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") {
			switch fn.Name() {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
			default:
				return true
			}
		}
		if exprVar(info, call.Args[0]) == v {
			found = true
		}
		return true
	})
	return found
}

func runDetOrder(pass *Pass) error {
	roots := detRoots[pass.Loaded.PkgPath]
	if len(roots) == 0 {
		return nil
	}
	res := analyzeDet(pass.Loaded, pass.Fset, pass.Facts)
	for _, r := range roots {
		if _, ok := res.summaries[r]; !ok && len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(), "deterministic-path root %s names no function in %s: update detRoots to the surviving entry points", r, pass.Loaded.PkgPath)
		}
	}

	// Reachability: roots plus their same-package call closure.
	reachable := make(map[string]bool)
	var visit func(key string)
	visit = func(key string) {
		if reachable[key] {
			return
		}
		reachable[key] = true
		for _, callee := range res.sameCalls[key] {
			visit(callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}

	keys := make([]string, 0, len(reachable))
	for k := range reachable {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, h := range res.own[key] {
			pass.Reportf(h.pos, "deterministic release path (%s): %s", key, h.desc)
		}
		for _, c := range res.calls[key] {
			pass.Reportf(c.pos, "deterministic release path (%s): call into %s carries determinism hazards: %s",
				key, shortName(c.callee), strings.Join(c.hazards, "; "))
		}
	}
	return nil
}
