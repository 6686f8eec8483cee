package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder infers the repo's lock-acquisition graph from syntactic
// Lock/RLock/Unlock pairing plus cross-package function summaries
// (facts), and enforces three rules on it:
//
//  1. the global "may acquire B while holding A" graph must stay a DAG
//     — a cycle is a potential deadlock even if no test provokes it;
//  2. a goroutine holding an RWMutex read side must never attempt the
//     write side of the same lock (read-to-write upgrade), and sync
//     locks are not reentrant;
//  3. while holding a lock in the configured no-block set (the
//     market's receipt-ordering recordMu, the engine's release mutex)
//     the code must not perform an operation from the configured
//     blocking set: fsync, net.Conn reads/writes, channel sends,
//     time.Sleep — directly or through any summarized callee.
//
// The analysis is deliberately syntactic and flow-approximate: bodies
// are walked in source order, deferred unlocks keep their lock held to
// function end, function literals (including go statements — the
// spawner typically blocks on the pool while still holding its locks)
// are walked under the spawner's held set, and interface calls are not
// resolved. That makes it conservative in the direction that matters:
// it can report an edge that dynamic instances never realize, but a
// statically visible inversion cannot hide.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: `infer the module-wide lock-acquisition graph (via cross-package facts)
and report ordering cycles, RLock-to-Lock upgrades, re-entrant acquisitions,
and blocking operations (fsync, net.Conn I/O, channel sends) performed while
holding a no-block lock such as market recordMu or the engine release mutex`,
	Run: runLockOrder,
}

// lockOrderNoBlock is the configurable set of locks that must never be
// held across a blocking operation: they sit on ack/release fast paths
// where a stalled fsync or socket would freeze every concurrent sale or
// answer.
var lockOrderNoBlock = map[string]bool{
	"privrange/internal/market.Broker.recordMu": true,
	"privrange/internal/core.Engine.releaseMu":  true,
	// Fixture hook: the golden tests exercise the rule without touching
	// real broker state.
	"privrange/internal/lint/testdata/src/lockorder.Journal.ackMu": true,
}

// heldLock is one entry of the walker's currently-held set.
type heldLock struct {
	id   string
	mode LockMode
	expr string // rendered receiver expression, for instance matching
	pos  token.Pos
}

type lockDiag struct {
	pos token.Pos
	msg string
}

// lockSummary is one function's transitive locking behavior.
type lockSummary struct {
	acquires map[string]LockMode
	blocks   []BlockOp
}

// lockResult is everything analyzeLocks learns about one package.
type lockResult struct {
	summaries map[string]*lockSummary
	edges     []LockEdge
	edgePos   map[string]token.Pos // edge key -> local position
	diags     []lockDiag
}

type lockAnalysis struct {
	pkg        *Package
	fset       *token.FileSet
	facts      *FactStore
	decls      map[string]*ast.FuncDecl
	keyOf      map[*types.Func]string
	res        *lockResult
	inProgress map[string]bool
	edgeSeen   map[string]bool
	// lastRecv carries the rendered receiver expression from
	// syncLockCall to the acquire that consumes it.
	lastRecv string
}

// analyzeLocks walks every function in pkg once, producing per-function
// summaries, the package's lock-order edges, and local diagnostics.
// Facts supply the summaries of imported packages' exported functions.
// Both the facts layer (to serialize summaries) and the lockorder pass
// (to report) run this; it is deterministic, so they always agree.
func analyzeLocks(pkg *Package, fset *token.FileSet, facts *FactStore) *lockResult {
	la := &lockAnalysis{
		pkg:   pkg,
		fset:  fset,
		facts: facts,
		decls: make(map[string]*ast.FuncDecl),
		keyOf: make(map[*types.Func]string),
		res: &lockResult{
			summaries: make(map[string]*lockSummary),
			edgePos:   make(map[string]token.Pos),
		},
		inProgress: make(map[string]bool),
		edgeSeen:   make(map[string]bool),
	}
	var keys []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := funcDeclKey(fd)
			la.decls[key] = fd
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				la.keyOf[obj] = key
			}
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		la.summarize(key)
	}
	sort.Slice(la.res.diags, func(i, j int) bool { return la.res.diags[i].pos < la.res.diags[j].pos })
	return la.res
}

// funcDeclKey renders "Name" or "Recv.Name" for a declaration.
func funcDeclKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// summarize computes (memoized) the transitive lock summary of one
// function. Recursive call cycles bottom out with the empty summary.
func (la *lockAnalysis) summarize(key string) *lockSummary {
	if s, ok := la.res.summaries[key]; ok {
		return s
	}
	if la.inProgress[key] {
		return &lockSummary{acquires: map[string]LockMode{}}
	}
	la.inProgress[key] = true
	sum := &lockSummary{acquires: map[string]LockMode{}}
	if fd := la.decls[key]; fd != nil && fd.Body != nil {
		w := &lockWalker{la: la, sum: sum, key: key}
		w.walkStmt(fd.Body)
	}
	delete(la.inProgress, key)
	la.res.summaries[key] = sum
	return sum
}

func (la *lockAnalysis) diag(pos token.Pos, format string, args ...any) {
	la.res.diags = append(la.res.diags, lockDiag{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// lockWalker walks one function body in source order, tracking the
// currently-held lock set.
type lockWalker struct {
	la        *lockAnalysis
	sum       *lockSummary
	key       string
	held      []heldLock
	blockSeen map[string]bool
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st)
		}
	case *ast.ExprStmt:
		w.walkExpr(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.walkExpr(e)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		w.walkStmt(s.Body)
		w.walkStmt(s.Else)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Cond)
		w.walkStmt(s.Post)
		w.walkStmt(s.Body)
	case *ast.RangeStmt:
		w.walkExpr(s.X)
		w.walkStmt(s.Body)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.walkExpr(s.Tag)
		w.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		w.walkStmt(s.Assign)
		w.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.walkExpr(e)
		}
		for _, st := range s.Body {
			w.walkStmt(st)
		}
	case *ast.SelectStmt:
		w.walkSelect(s)
	case *ast.CommClause:
		w.walkStmt(s.Comm)
		for _, st := range s.Body {
			w.walkStmt(st)
		}
	case *ast.SendStmt:
		w.walkExpr(s.Chan)
		w.walkExpr(s.Value)
		w.blockOp("channel send", s.Arrow)
	case *ast.DeferStmt:
		// A deferred unlock keeps its lock held through function end —
		// exactly how the linear walk models "never removed". Other
		// deferred calls are walked inline; approximate, but a deferred
		// call runs under whatever locks remain held at return, which the
		// current held set approximates from below.
		if _, _, op, ok := w.la.syncLockCall(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		w.walkExpr(s.Call)
	case *ast.GoStmt:
		// Conservative: the spawned body is walked under the spawner's
		// held set. Every pool in this repo joins (wg.Wait) while the
		// spawner still holds its locks, so goroutine-side acquisitions
		// genuinely order against spawner-held locks.
		w.walkExpr(s.Call)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.IncDecStmt:
		w.walkExpr(s.X)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

// walkSelect treats the communication guards of a select without a
// default clause as blocking; with a default the select cannot block.
func (w *lockWalker) walkSelect(s *ast.SelectStmt) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil {
			if hasDefault {
				// Non-blocking attempt: walk sub-expressions but record no
				// blocking op.
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					w.walkExpr(comm.Chan)
					w.walkExpr(comm.Value)
				case *ast.ExprStmt:
					w.walkExpr(comm.X)
				case *ast.AssignStmt:
					for _, e := range comm.Rhs {
						w.walkExpr(e)
					}
				}
			} else {
				w.walkStmt(cc.Comm)
			}
		}
		for _, st := range cc.Body {
			w.walkStmt(st)
		}
	}
}

func (w *lockWalker) walkExpr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.walkCall(e)
	case *ast.FuncLit:
		// A literal that is merely created (stored, passed) is still
		// walked under the current held set: callbacks in this repo run
		// synchronously under their caller (shard.Cluster.scatter joins
		// its workers before it returns).
		w.walkStmt(e.Body)
	case *ast.ParenExpr:
		w.walkExpr(e.X)
	case *ast.SelectorExpr:
		w.walkExpr(e.X)
	case *ast.BinaryExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Y)
	case *ast.UnaryExpr:
		w.walkExpr(e.X)
	case *ast.StarExpr:
		w.walkExpr(e.X)
	case *ast.IndexExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Index)
	case *ast.IndexListExpr:
		w.walkExpr(e.X)
	case *ast.SliceExpr:
		w.walkExpr(e.X)
		w.walkExpr(e.Low)
		w.walkExpr(e.High)
		w.walkExpr(e.Max)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			w.walkExpr(elt)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value)
	}
}

func (w *lockWalker) walkCall(call *ast.CallExpr) {
	// Immediately-invoked function literal: inline under current held.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.walkExpr(a)
		}
		w.walkStmt(lit.Body)
		return
	}
	if id, mode, op, ok := w.la.syncLockCall(call); ok {
		switch op {
		case "Lock", "RLock", "TryLock", "TryRLock":
			w.acquire(id, mode, call.Pos())
		case "Unlock", "RUnlock":
			w.release(id)
		}
		return
	}
	// Arguments and nested calls first (evaluation order).
	if fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.walkExpr(fun.X)
	}
	for _, a := range call.Args {
		w.walkExpr(a)
	}
	fn := calleeFunc(w.la.pkg.Info, call)
	if fn == nil {
		return
	}
	if op := directBlockingOp(fn); op != "" {
		w.blockOp(op, call.Pos())
		return
	}
	// Same-package callee: fold its transitive summary in.
	if key, ok := w.la.keyOf[fn]; ok {
		w.applySummary(key, w.la.summarize(key), call.Pos())
		return
	}
	// Cross-package callee: consult serialized facts.
	if fn.Pkg() != nil && w.la.facts != nil {
		if pf, ok := w.la.facts.ForPackage(fn.Pkg().Path()); ok {
			name := factFuncName(fn)
			if ff, ok := pf.Funcs[name]; ok {
				sum := &lockSummary{acquires: map[string]LockMode{}}
				for id, mode := range ff.Acquires {
					sum.acquires[id] = mode
				}
				sum.blocks = ff.Blocks
				w.applySummary(fn.Pkg().Path()+"."+name, sum, call.Pos())
			}
		}
	}
}

// factFuncName renders a *types.Func the way facts key it:
// "Name" or "Recv.Name".
func factFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if named, isNamed := derefNamed(sig.Recv().Type()); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// acquire processes a direct Lock/RLock event.
func (w *lockWalker) acquire(id string, mode LockMode, pos token.Pos) {
	exprStr := w.la.lastRecv
	for _, h := range w.held {
		if h.id == id {
			// Only syntactically identical receiver expressions are claimed
			// to be the same instance; distinct instances of the same lock
			// class are a legitimate (if delicate) pattern and produce no
			// self edge.
			if h.expr == exprStr || h.expr == "" || exprStr == "" {
				if h.mode == ModeShared && mode == ModeExclusive {
					w.la.diag(pos, "write-lock of %s while its read lock is held: RLock→Lock upgrade self-deadlocks (RWMutex writers wait out all readers)", shortLock(id))
				} else {
					w.la.diag(pos, "re-acquiring %s while already held: sync mutexes are not reentrant, this self-deadlocks", shortLock(id))
				}
				return
			}
			continue
		}
		w.addEdge(h, id, mode, pos)
	}
	w.held = append(w.held, heldLock{id: id, mode: mode, expr: exprStr, pos: pos})
	w.noteAcquire(id, mode)
}

func (w *lockWalker) release(id string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// noteAcquire folds an acquisition into the function summary, keeping
// the strongest mode.
func (w *lockWalker) noteAcquire(id string, mode LockMode) {
	if prev, ok := w.sum.acquires[id]; !ok || (prev == ModeShared && mode == ModeExclusive) {
		w.sum.acquires[id] = mode
	}
}

// applySummary folds a callee's transitive summary into the caller at a
// call site: ordering edges from every held lock to every callee
// acquisition, re-entrancy checks, blocking checks, summary
// propagation.
func (w *lockWalker) applySummary(calleeName string, sum *lockSummary, pos token.Pos) {
	ids := make([]string, 0, len(sum.acquires))
	for id := range sum.acquires {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		mode := sum.acquires[id]
		for _, h := range w.held {
			if h.id == id {
				if h.mode == ModeShared && mode == ModeExclusive {
					w.la.diag(pos, "call to %s may write-lock %s while its read lock is held: RLock→Lock upgrade self-deadlocks", shortName(calleeName), shortLock(id))
				} else {
					w.la.diag(pos, "call to %s may re-acquire %s already held here: sync mutexes are not reentrant", shortName(calleeName), shortLock(id))
				}
				continue
			}
			w.addEdge(h, id, mode, pos)
		}
		w.noteAcquire(id, mode)
	}
	// One diagnostic per op class per call site: a callee with five
	// fsync sites is one problem here, not five.
	checkedOps := make(map[string]bool)
	for _, b := range sum.blocks {
		if !checkedOps[b.Op] {
			checkedOps[b.Op] = true
			w.checkBlocking(b.Op, pos, " (via "+shortName(calleeName)+")")
		}
		w.addBlock(b)
	}
}

// blockOp records a directly-performed blocking operation.
func (w *lockWalker) blockOp(op string, pos token.Pos) {
	w.checkBlocking(op, pos, "")
	w.addBlock(BlockOp{Op: op, Pos: w.la.fset.Position(pos).String()})
}

// addBlock appends a blocking op to the summary, deduplicating by
// operation and site so summaries stay bounded along call chains.
func (w *lockWalker) addBlock(b BlockOp) {
	if w.blockSeen == nil {
		w.blockSeen = make(map[string]bool)
	}
	key := b.Op + "\x00" + b.Pos
	if w.blockSeen[key] {
		return
	}
	w.blockSeen[key] = true
	w.sum.blocks = append(w.sum.blocks, b)
}

func (w *lockWalker) checkBlocking(op string, pos token.Pos, via string) {
	for _, h := range w.held {
		if lockOrderNoBlock[h.id] {
			w.la.diag(pos, "%s%s while holding %s: no-block locks sit on the ack/release fast path and must never wait on I/O or channel peers", op, via, shortLock(h.id))
		}
	}
}

func (w *lockWalker) addEdge(from heldLock, to string, toMode LockMode, pos token.Pos) {
	key := from.id + "→" + to
	if w.la.edgeSeen[key] {
		return
	}
	w.la.edgeSeen[key] = true
	w.la.res.edges = append(w.la.res.edges, LockEdge{
		From:     from.id,
		FromMode: from.mode,
		To:       to,
		ToMode:   toMode,
		Pos:      w.la.fset.Position(pos).String(),
	})
	w.la.res.edgePos[key] = pos
}

// syncLockCall reports whether call is a sync.Mutex / sync.RWMutex
// lock-class method call, resolving the lock's identity.
func (la *lockAnalysis) syncLockCall(call *ast.CallExpr) (id string, mode LockMode, op string, ok bool) {
	fn := calleeFunc(la.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	switch fn.Name() {
	case "Lock", "TryLock", "Unlock":
		mode = ModeExclusive
	case "RLock", "TryRLock", "RUnlock":
		mode = ModeShared
	default:
		return "", "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", "", false
	}
	recvName := ""
	if named, okN := derefNamed(sig.Recv().Type()); okN {
		recvName = named.Obj().Name()
	}
	if recvName != "Mutex" && recvName != "RWMutex" {
		return "", "", "", false
	}
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", "", false
	}
	id, expr := la.lockIdentity(sel.X)
	la.lastRecv = expr
	return id, mode, fn.Name(), id != ""
}

// lockIdentity names the lock a receiver expression denotes:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level
// variables, "pkg.<local>.var" for locals, "pkg.Type.Mutex" for a named
// type embedding a mutex. The rendered expression comes back too, for
// instance discrimination.
func (la *lockAnalysis) lockIdentity(recv ast.Expr) (id, expr string) {
	recv = ast.Unparen(recv)
	expr = types.ExprString(recv)
	// Embedded mutex: the receiver is not itself a sync type.
	if tv, ok := la.pkg.Info.Types[recv]; ok && tv.Type != nil {
		if named, okN := derefNamed(tv.Type); okN {
			if named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return qualifyNamed(named) + ".Mutex", expr
			}
		}
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := la.pkg.Info.Selections[r]; ok {
			if field, okF := sel.Obj().(*types.Var); okF {
				if named, okN := derefNamed(sel.Recv()); okN {
					return qualifyNamed(named) + "." + field.Name(), expr
				}
			}
		}
		if obj, ok := la.pkg.Info.Uses[r.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name(), expr
		}
	case *ast.Ident:
		if obj, ok := la.pkg.Info.Uses[r].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name(), expr
			}
			return obj.Pkg().Path() + ".<local>." + obj.Name(), expr
		}
	}
	// Positional fallback so exotic receivers (locks[i]) still track.
	return la.pkg.PkgPath + ".<expr>." + expr, expr
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func qualifyNamed(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// directBlockingOp classifies calls in the configured blocking set.
func directBlockingOp(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "os":
		if isFuncNamed(fn, "os", "File.Sync") {
			return "fsync"
		}
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "net":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			switch fn.Name() {
			case "Write":
				return "net.Conn write"
			case "Read":
				return "net.Conn read"
			}
		}
	}
	return ""
}

// shortLock trims the module prefix for readable diagnostics.
func shortLock(id string) string {
	return strings.TrimPrefix(id, "privrange/internal/")
}

func shortName(name string) string {
	return strings.TrimPrefix(name, "privrange/internal/")
}

// adjEdge is one outgoing edge in the cycle-detection graph.
type adjEdge struct {
	to  string
	pos string
}

func runLockOrder(pass *Pass) error {
	res := analyzeLocks(pass.Loaded, pass.Fset, pass.Facts)
	for _, d := range res.diags {
		pass.Reportf(d.pos, "%s", d.msg)
	}

	// Global cycle detection: this package's edges plus every serialized
	// edge from the facts store (the import closure). When facts already
	// include this package (the normal multichecker configuration), own
	// edges duplicate serialized ones; parallel edges are harmless to the
	// path search.
	adj := make(map[string][]adjEdge)
	if pass.Facts != nil {
		for _, e := range pass.Facts.AllEdges() {
			adj[e.From] = append(adj[e.From], adjEdge{to: e.To, pos: e.Pos})
		}
	}
	for _, e := range res.edges {
		adj[e.From] = append(adj[e.From], adjEdge{to: e.To, pos: e.Pos})
	}
	for from := range adj {
		es := adj[from]
		sort.Slice(es, func(i, j int) bool { return es[i].to < es[j].to })
		adj[from] = es
	}

	// A cycle is reported only from a package contributing one of its
	// edges — otherwise every importer would re-report the same cycle.
	reported := make(map[string]bool)
	for _, e := range res.edges {
		path := lockPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]string{e.From, e.To}, path...)
		key := canonicalCycle(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(res.edgePos[e.From+"→"+e.To],
			"lock-order cycle: %s — a concurrent pair of these acquisition chains deadlocks; break the cycle or narrow a critical section",
			renderCycle(cycle))
	}
	return nil
}

// lockPath finds a path from start to goal in the edge graph, returning
// the node sequence after start (ending in goal), or nil. BFS over a
// sorted adjacency keeps the reported witness deterministic.
func lockPath(adj map[string][]adjEdge, start, goal string) []string {
	type qItem struct {
		node string
		path []string
	}
	seen := map[string]bool{start: true}
	queue := []qItem{{node: start}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, e := range adj[it.node] {
			if e.to == goal {
				return append(append([]string(nil), it.path...), goal)
			}
			if seen[e.to] {
				continue
			}
			seen[e.to] = true
			queue = append(queue, qItem{node: e.to, path: append(append([]string(nil), it.path...), e.to)})
		}
	}
	return nil
}

func canonicalCycle(nodes []string) string {
	set := make(map[string]bool)
	for _, n := range nodes {
		set[n] = true
	}
	uniq := make([]string, 0, len(set))
	for n := range set {
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return strings.Join(uniq, "|")
}

func renderCycle(nodes []string) string {
	short := make([]string, 0, len(nodes)+1)
	for _, n := range nodes {
		short = append(short, shortLock(n))
	}
	short = append(short, shortLock(nodes[0])) // close the loop visually
	return strings.Join(short, " → ")
}
