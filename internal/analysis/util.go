package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the called function or method of a call expression,
// or nil when the call is a conversion, a builtin, or a call through a
// function-typed value.
func calleeFunc(info *PackageInfo, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or "".
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMethodOf reports whether fn is a method named name whose declaring
// package path equals or has the given suffix.
func isMethodOf(fn *types.Func, pkgSuffix, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return hasSuffixPath(funcPkgPath(fn), pkgSuffix)
}

// namedTypeIn reports whether t (after stripping pointers) is the named
// type name declared in a package whose path equals or has the suffix
// pkgSuffix.
func namedTypeIn(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return hasSuffixPath(obj.Pkg().Path(), pkgSuffix)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// returnsError reports whether the call's result includes an error.
func returnsError(info *PackageInfo, call *ast.CallExpr) bool {
	tv, ok := info.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if isErrorType(tv.Type) {
		return true
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tuple.Len(); i++ {
		if isErrorType(tuple.At(i).Type()) {
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

// hasSuffixPath reports whether path equals suffix or ends in "/"+suffix.
func hasSuffixPath(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
