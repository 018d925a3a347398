package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// NewErrCheck builds the unchecked-error check: a statement that calls a
// function returning an error and silently discards it is flagged.
// Explicit discards (`_ = f()`) and deferred cleanup (`defer f.Close()`)
// are allowed; so are fmt writes to stdout/stderr and to sticky or
// infallible writers (bytes.Buffer, strings.Builder, bufio.Writer —
// bufio errors are observed at Flush, which is itself checked).
func NewErrCheck() *Analyzer {
	return &Analyzer{
		Name: "errcheck",
		Doc:  "no silently dropped error returns in non-test code",
		Run:  runErrCheck,
	}
}

func runErrCheck(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	check := func(call *ast.CallExpr) {
		if !returnsError(pass.Pkg, call) || errExempt(pass, call) {
			return
		}
		diags = append(diags, Diagnostic{
			Pos:     pass.Fset.Position(call.Pos()),
			Check:   "errcheck",
			Message: fmt.Sprintf("error result of %s is dropped; handle it or assign to _", exprText(call.Fun)),
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call)
				}
			case *ast.GoStmt:
				check(n.Call)
			case *ast.DeferStmt:
				// Deferred cleanup errors are exempt by convention.
				return false
			}
			return true
		})
	}
	return diags
}

// errExempt reports whether a dropped error from this call is acceptable.
func errExempt(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg, call)
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
		return infallibleWriter(pass, call.Args[0])
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
func infallibleWriter(pass *Pass, e ast.Expr) bool {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" &&
			(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
			if obj := pass.Pkg.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" {
				return true
			}
		}
	}
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return namedTypeIn(tv.Type, "bytes", "Buffer") ||
		namedTypeIn(tv.Type, "strings", "Builder") ||
		namedTypeIn(tv.Type, "bufio", "Writer")
}
