package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// errCheck flags every statement that calls a function returning an error
// and silently discards it. Explicit discards (`_ = f()`) and the deferred
// call itself (`defer f.Close()`) are allowed, though the body of a
// deferred or spawned function literal is checked like any other; so are
// fmt writes to stdout/stderr and to sticky or infallible writers
// (bytes.Buffer, strings.Builder, bufio.Writer — bufio errors are observed
// at Flush, which is itself checked).
func errCheck(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	check := func(call *ast.CallExpr) {
		if !returnsError(pkg.Info, call) || errExempt(pkg.Info, call) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:     pkg.Fset.Position(call.Pos()),
			Message: fmt.Sprintf("error result of %s is dropped; handle it or assign to _", exprText(call.Fun)),
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// A deferred call is no ExprStmt, so `defer f.Close()` itself
			// is exempt, while the walk still enters the body of a deferred
			// or spawned function literal.
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call)
				}
			case *ast.GoStmt:
				check(n.Call)
			}
			return true
		})
	}
	return diags
}

// errExempt reports whether a dropped error from this call is acceptable.
func errExempt(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	// fmt.Print* writes to stdout.
	if pkg == "fmt" && strings.HasPrefix(name, "Print") {
		return true
	}
	// fmt.Fprint* to stderr/stdout or to a sticky/infallible writer.
	if pkg == "fmt" && strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		return infallibleWriter(info, call.Args[0])
	}
	// Methods on infallible in-memory writers, and bufio.Writer writes
	// (sticky errors, observed at Flush — Flush itself is not exempt).
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if namedTypeIn(t, "strings", "Builder") || namedTypeIn(t, "bytes", "Buffer") {
			return true
		}
		if namedTypeIn(t, "bufio", "Writer") && name != "Flush" {
			return true
		}
	}
	return false
}

// infallibleWriter reports whether the expression denotes a writer whose
// errors are either impossible or observed later: os.Stdout, os.Stderr,
// *bytes.Buffer, *strings.Builder, or *bufio.Writer.
func infallibleWriter(info *types.Info, e ast.Expr) bool {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" &&
			(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
			if obj := info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
				return true
			}
		}
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return namedTypeIn(tv.Type, "bytes", "Buffer") ||
		namedTypeIn(tv.Type, "strings", "Builder") ||
		namedTypeIn(tv.Type, "bufio", "Writer")
}

// calleeFunc resolves the called function or method of a call expression,
// or nil when the call is a conversion, a builtin, or a call through a
// function-typed value.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedTypeIn reports whether t (after stripping pointers) is the named
// type name declared in the package with import path pkgPath.
func namedTypeIn(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// returnsError reports whether the call's result includes an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	isErr := func(t types.Type) bool { return types.Identical(t, types.Universe.Lookup("error").Type()) }
	if isErr(tv.Type) {
		return true
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tuple.Len(); i++ {
		if isErr(tuple.At(i).Type()) {
			return true
		}
	}
	return false
}

// exprText renders a (small) expression for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprText(e.X)
	case *ast.ParenExpr:
		return exprText(e.X)
	}
	return "<expr>"
}
