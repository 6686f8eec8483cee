package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// WALDebit mechanizes the durability work's journal-before-ack
// invariant: every mutation of the trading books — a wallet grant,
// debit or refund, a ledger receipt, an ε spend — must be paired with a
// write-ahead-log append in the same function, so no money or budget
// can move without a durable record. The historical bug class is a new
// call site (a facade method, a protocol handler) that mutates the
// wallet or ledger directly and silently bypasses the WAL: the books
// look right until the first crash, after which recovery resurrects or
// vanishes money.
//
// Mechanization: a function that calls one of the book mutators
// (market.Wallets.settle/debit/refund, market.Ledger.Record,
// dp.Accountant.Spend) must also show journaling evidence — a call to a
// journal*-named helper or to a method on the WAL type. Two layers are
// exempt: internal/dp (the accountant IS the mutated state) and
// internal/core (the engine charges the accountant inside the release
// path; the broker journals that spend at the market layer, where the
// sale's identity lives). Replay-side restore helpers (restore*) are
// deliberately NOT in the mutator list: recovery is the one writer
// that works from the log instead of ahead of it.
var WALDebit = &Analyzer{
	Name: "waldebit",
	Doc: `require a write-ahead-log append alongside every trading-book
mutation: wallet deposits/debits/refunds, ledger receipts and ε spends
must be journaled before the operation is acknowledged — a call site
that skips the WAL makes money and budget vanish (or resurrect) on the
next crash`,
	Run: runWALDebit,
}

// dpPkg names the accountant's package; marketPkg and corePkg come
// from privacyboundary.go.
const dpPkg = "privrange/internal/dp"

// walMutators are the typed calls that move money, receipts or ε.
var walMutators = []struct{ pkg, name string }{
	{marketPkg, "Wallets.settle"},
	{marketPkg, "Wallets.debit"},
	{marketPkg, "Wallets.refund"},
	{marketPkg, "Ledger.Record"},
	{dpPkg, "Accountant.Spend"},
}

func runWALDebit(pass *Pass) error {
	switch pass.Pkg.Path() {
	case dpPkg, corePkg:
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWALDebit(pass, fd)
		}
	}
	return nil
}

func checkWALDebit(pass *Pass, fd *ast.FuncDecl) {
	journaled := funcJournals(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		for _, m := range walMutators {
			if !isFuncNamed(fn, m.pkg, m.name) {
				continue
			}
			if journaled {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s calls %s without journaling: trading-book mutations must append a WAL record in the same function (journal*/WAL methods) so the operation is durable before it is acknowledged",
				fd.Name.Name, m.name)
			return true
		}
		return true
	})
}

// funcJournals reports whether fd shows journaling evidence: a call to
// a journal*-named function or method, or to any method on a type
// named WAL.
func funcJournals(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if strings.HasPrefix(calleeName(call), "journal") {
			found = true
			return false
		}
		if fn := calleeFunc(pass.TypesInfo, call); methodRecvTypeName(fn) == "WAL" {
			found = true
			return false
		}
		return true
	})
	return found
}

// methodRecvTypeName returns the name of fn's receiver type ("" for
// nil, plain functions and unnamed receivers), looking through one
// pointer.
func methodRecvTypeName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
