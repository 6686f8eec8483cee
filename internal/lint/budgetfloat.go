package lint

import (
	"go/ast"
	"go/token"
	"regexp"
)

// budgetName matches identifiers and field names that carry privacy
// budgets or accuracy parameters: epsilon/eps (ε, ε′), delta (δ, δ′),
// alpha (α, α′), and the accountant's budget/cap/spent bookkeeping.
// eps and cap match only as whole words, so capacity does not.
var budgetName = regexp.MustCompile(`(?i)(epsilon|(^|[^a-z])(eps|cap)([^a-z]|$)|delta|alpha|budget|spent)`)

// BudgetFloat flags exact floating-point comparison of privacy-budget
// quantities.
var BudgetFloat = &Analyzer{
	Name: "budgetfloat",
	Doc: `flag == / != comparisons and compared differences on epsilon/delta/
budget-typed floats: budget arithmetic accumulates rounding error, so exact
equality silently mis-gates spends; compare against the literal 0 sentinel
only, and otherwise use the tolerance helpers (stats.ApproxEqual)`,
	Run: runBudgetFloat,
}

func runBudgetFloat(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.EQL, token.NEQ:
				if !budgetFloatOperand(pass, be.X) && !budgetFloatOperand(pass, be.Y) {
					return true
				}
				// `x == 0` is the conventional "unset/unlimited" sentinel
				// (Accountant.cap, composition counts); exact zero is
				// representable and intentional there.
				if isZeroLiteral(pass.TypesInfo, be.X) || isZeroLiteral(pass.TypesInfo, be.Y) {
					return true
				}
				pass.Reportf(be.OpPos, "exact %s on budget-typed floats: rounding error mis-gates budget decisions; use stats.ApproxEqual or an explicit tolerance", be.Op)
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				// Differencing two budgets inside a comparison
				// (cap-spent > price) hides catastrophic cancellation;
				// compare the sums directly or go through the
				// accountant's Remaining/tolerance helpers.
				for _, side := range []ast.Expr{be.X, be.Y} {
					sub, ok := ast.Unparen(side).(*ast.BinaryExpr)
					if !ok || sub.Op != token.SUB {
						continue
					}
					if !budgetFloatOperand(pass, sub.X) || !budgetFloatOperand(pass, sub.Y) {
						continue
					}
					other := be.Y
					if side == be.Y {
						other = be.X
					}
					if isZeroLiteral(pass.TypesInfo, other) {
						continue
					}
					pass.Reportf(sub.OpPos, "budget difference compared directly: subtraction of budget floats cancels catastrophically; rearrange to compare sums (spent+eps > cap) or use the accountant/tolerance helpers")
				}
			}
			return true
		})
	}
	return nil
}

// budgetFloatOperand reports whether e is a float-typed expression
// whose name (identifier, selector field, or call result assigned to
// such) marks it as a privacy budget or accuracy parameter.
func budgetFloatOperand(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || !isFloat(tv.Type) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		return budgetName.MatchString(e.Name)
	case *ast.SelectorExpr:
		return budgetName.MatchString(e.Sel.Name)
	case *ast.CallExpr:
		return budgetName.MatchString(calleeName(e))
	case *ast.BinaryExpr:
		return budgetFloatOperand(pass, e.X) || budgetFloatOperand(pass, e.Y)
	}
	return false
}
