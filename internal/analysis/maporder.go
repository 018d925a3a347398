package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder: the byte-exact outputs the system promises — wire encodings,
// /metrics and /v1/stats bodies, merged search reports — must not be shaped
// by Go's randomized map iteration order or by which select case happened
// to be ready first. Roots are the wire encoders, metrics exposition, every
// function declared in a simulator package (inSimulator: the engine's
// reports and the device's op stream are compared byte for byte across
// runs), and every function annotated //texlint:deterministic; the check
// walks their transitive module-local callees and flags two constructs
// inside the closure:
//
//   - a range over a map that builds ordered output (append, prints,
//     writer calls, string concatenation) with no subsequent sort in the
//     same function — the collect-then-sort idiom is the fix;
//   - a select with two or more communication cases, whose winner is
//     chosen at random when several are ready.
//
// A //texlint:ignore maporder on a call line prunes traversal through that
// edge (for paths whose ordering is reviewed as immaterial).

// NewMapOrder returns the output-determinism check.
func NewMapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "deterministic-output call closures must sort map iterations and avoid multi-way selects",
		Run:  runMapOrder,
	}
}

// intrinsicDeterministicRoot reports whether fn promises deterministic
// bytes by convention: everything in a simulator package, wire encoders,
// and the metrics text exposition.
func intrinsicDeterministicRoot(fn *types.Func, fi *FuncInfo) bool {
	if inSimulator(fi.Pkg.Path) {
		return true
	}
	if hasSuffixPath(fi.Pkg.Path, "internal/wire") && strings.HasPrefix(fn.Name(), "Encode") {
		return true
	}
	return isMethodOf(fn, "internal/metrics", "Expose")
}

func runMapOrder(prog *Program) []Diagnostic {
	var roots []*types.Func
	for fn, fi := range prog.Funcs {
		if fi.Ann.Deterministic || intrinsicDeterministicRoot(fn, fi) {
			roots = append(roots, fn)
		}
	}
	order, parent := prog.reach(roots, "maporder", nil)

	var out []Diagnostic
	for _, fn := range order {
		fi := prog.Funcs[fn]
		info := fi.Pkg.Info
		chain := chainPath(fn, parent)
		suffix := ""
		if chain != "" {
			suffix = fmt.Sprintf(" (deterministic path: %s)", chain)
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := info.Info.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if !buildsOrderedOutput(info, n.Body) || sortedAfter(info, fi.Decl, n.End()) {
					return true
				}
				out = append(out, Diagnostic{
					Pos:     prog.Fset.Position(n.Pos()),
					Check:   "maporder",
					Message: "map iteration order is random but this loop feeds deterministic output; collect the keys and sort first" + suffix,
					Chain:   chain,
				})
			case *ast.SelectStmt:
				comms := 0
				for _, cl := range n.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					out = append(out, Diagnostic{
						Pos:     prog.Fset.Position(n.Pos()),
						Check:   "maporder",
						Message: "select picks a random ready case; deterministic output must not depend on channel arrival order" + suffix,
						Chain:   chain,
					})
				}
			}
			return true
		})
	}
	return out
}

// buildsOrderedOutput reports whether the loop body performs an
// order-sensitive accumulation: append, fmt output, writer calls, or
// string concatenation.
func buildsOrderedOutput(info *PackageInfo, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if fn := calleeFunc(info, n); fn != nil {
				name := fn.Name()
				if funcPkgPath(fn) == "fmt" && strings.Contains(name, "rint") {
					found = true
				}
				if strings.HasPrefix(name, "Write") {
					found = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if tv, ok := info.Info.Types[n.Lhs[0]]; ok && tv.Type != nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

// sortedAfter reports whether the function calls a sorting/ranking
// routine positioned after pos (the idiomatic collect-then-sort pattern).
func sortedAfter(info *PackageInfo, fd *ast.FuncDecl, pos token.Pos) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if funcPkgPath(fn) == "sort" || funcPkgPath(fn) == "slices" ||
			strings.Contains(fn.Name(), "Sort") || strings.Contains(fn.Name(), "Rank") {
			sorted = true
		}
		return true
	})
	return sorted
}
