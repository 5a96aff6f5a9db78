package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// floateq: == and != on floating-point expressions are almost always a
// bug outside the bit-exactness tests that assert them on purpose (the
// batched kernels are proven bitwise-equal to the scalar forms in
// _test.go files, which this suite never loads — test files are outside
// the analysis by construction). Two carve-outs keep the rule usable:
// comparisons against an exact constant zero (the division-guard /
// sentinel idiom: `if sum == 0 { return }`) and comparisons where both
// operands are untyped constants (resolved at compile time). Everything
// else — epsilon-free convergence checks, NaN tests spelled x != x —
// is flagged.
var analyzerFloatEq = &Analyzer{
	Name: "floateq",
	Hint: "compare with an epsilon, use math.Float64bits for bit identity, or //lint:ignore floateq <why exact equality is intended>",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			xt, xok := info.Types[bin.X]
			yt, yok := info.Types[bin.Y]
			if !xok || !yok {
				return true
			}
			if !isFloat(xt.Type) && !isFloat(yt.Type) {
				return true
			}
			// Exact-zero sentinel comparisons are the idiom for "was this
			// ever set / dare I divide": allowed.
			if isConstZero(xt) || isConstZero(yt) {
				return true
			}
			// Both sides compile-time constants: the comparison is exact
			// by definition.
			if xt.Value != nil && yt.Value != nil {
				return true
			}
			pass.Reportf(bin.OpPos, "%s on float operands", bin.Op)
			return true
		})
	}
}

func isConstZero(tv types.TypeAndValue) bool {
	if tv.Value == nil || tv.Value.Kind() == constant.Unknown {
		return false
	}
	return constant.Compare(tv.Value, token.EQL, constant.MakeInt64(0))
}
