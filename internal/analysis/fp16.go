package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// NewFP16 builds the FP16-discipline check: outside internal/half, code
// may not manufacture binary16 values by raw conversion
// (half.Float16(x) reinterprets x as a bit pattern, skipping
// round-to-nearest-even) nor apply native arithmetic operators to
// Float16 operands (which would add bit patterns, not numbers). The
// hgemm/cache path must go through half.FromFloat32 for storage and
// half.FMA/Dot for arithmetic, so the simulated pre-Volta accumulation
// semantics stay faithful.
func NewFP16() *Analyzer {
	return &Analyzer{
		Name: "fp16",
		Doc:  "no raw Float16 conversions or bit-pattern arithmetic outside internal/half",
		Run:  perPackage(fp16Scope, runFP16),
	}
}

const halfPath = "internal/half"

// fp16Scope is every package but internal/half, which implements the
// conversions the rest of the tree must go through.
func fp16Scope(pkgPath string) bool { return !hasSuffixPath(pkgPath, halfPath) }

var fp16ArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
}

func runFP16(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     pass.Fset.Position(pos),
			Check:   "fp16",
			Message: fmt.Sprintf(format, args...),
		})
	}
	isFloat16 := func(e ast.Expr) bool {
		tv, ok := pass.Pkg.Info.Types[e]
		return ok && namedTypeIn(tv.Type, halfPath, "Float16")
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// A conversion whose callee *is* the Float16 type.
				tv, ok := pass.Pkg.Info.Types[ast.Unparen(n.Fun)]
				if ok && tv.IsType() && namedTypeIn(tv.Type, halfPath, "Float16") {
					report(n.Pos(), "half.Float16(...) conversion writes a raw bit pattern; use half.FromFloat32")
				}
			case *ast.BinaryExpr:
				if fp16ArithOps[n.Op] && (isFloat16(n.X) || isFloat16(n.Y)) {
					report(n.Pos(), "native %s on half.Float16 operates on bit patterns; use half.FMA/half.Dot or convert via Float32()", n.Op)
				}
			}
			return true
		})
	}
	return diags
}
