package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// aliasret: APIs annotated //texlint:scratchalias return results that
// alias a caller-provided (or internal) reusable scratch — the zero-alloc
// contract's other half. Callers must consume such results before the next
// call on the same scratch and must not let them outlive the scratch's
// reuse cycle. The check flags, per calling function:
//
//   - escapes: storing an aliased result in a struct field, global, map,
//     slice element, or composite literal, sending it on a channel, or
//     returning it (unless the caller is itself //texlint:scratchalias —
//     that is how the annotation propagates up wrapper APIs);
//   - copies that retain: append(acc, res...) and friends keep aliased
//     memory (or a view of it) beyond the next reuse;
//   - use-after-reuse: reading a result after a later scratchalias call
//     on the same scratch expression has recycled the backing buffers;
//   - cross-iteration reads: inside a loop, touching the result before
//     the aliasing call means reading the previous iteration's data.
//
// The analysis is intra-procedural per caller, with scratch identity
// approximated by the source text of the scratch argument (or receiver).

// NewAliasRet returns the scratch-aliasing misuse check.
func NewAliasRet() *Analyzer {
	return &Analyzer{
		Name: "aliasret",
		Doc:  "results of //texlint:scratchalias APIs must not be retained across scratch reuse",
		Run:  runAliasRet,
	}
}

// aliasCall is one call to a scratchalias API within the analyzed body.
type aliasCall struct {
	call   *ast.CallExpr
	callee *types.Func
	key    string // source text of the scratch argument; "" if none found
	loop   ast.Stmt
	vars   []*types.Var // result bindings worth tracking
}

func runAliasRet(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Info.Defs[fd.Name].(*types.Func)
				var selfAliases bool
				if fn != nil && prog.Funcs[fn] != nil {
					selfAliases = prog.Funcs[fn].Ann.ScratchAlias
				}
				out = append(out, checkAliasUse(prog, pkg, fd, selfAliases)...)
			}
		}
	}
	return out
}

func checkAliasUse(prog *Program, pkg *Package, fd *ast.FuncDecl, selfAliases bool) []Diagnostic {
	parents := buildParents(fd.Body)

	// Collect scratchalias call sites and their result bindings.
	var calls []*aliasCall
	defIdents := make(map[*ast.Ident]bool) // idents that (re)bind a result
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pkg.Info, call)
		if callee == nil {
			return true
		}
		callee = callee.Origin()
		fi := prog.Funcs[callee]
		if fi == nil || !fi.Ann.ScratchAlias {
			return true
		}
		ac := &aliasCall{
			call:   call,
			callee: callee,
			key:    scratchKey(pkg, call, callee),
			loop:   enclosingLoop(parents, call),
		}
		// Result bindings: res, err := f(...) / res, err = f(...).
		if as, ok := parents[call].(*ast.AssignStmt); ok && len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call {
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var v *types.Var
				if obj, ok := pkg.Info.Info.Defs[id].(*types.Var); ok {
					v = obj
				} else if obj, ok := pkg.Info.Info.Uses[id].(*types.Var); ok {
					v = obj
				}
				if v == nil || isErrorType(v.Type()) {
					continue
				}
				defIdents[id] = true
				ac.vars = append(ac.vars, v)
			}
		}
		calls = append(calls, ac)
		return true
	})
	if len(calls) == 0 {
		return nil
	}

	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "aliasret",
			Message: fmt.Sprintf(format, args...),
		})
	}

	for _, ac := range calls {
		calleeName := funcDisplayName(ac.callee)
		for _, v := range ac.vars {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || defIdents[id] {
					return true
				}
				if obj, ok := pkg.Info.Info.Uses[id].(*types.Var); !ok || obj != v {
					return true
				}
				// Uses inside the defining call (re-passing the old value
				// as an argument) are the call's own business.
				if id.Pos() >= ac.call.Pos() && id.Pos() < ac.call.End() {
					return true
				}
				checkOneUse(prog, pkg, fd, parents, calls, ac, calleeName, v, id, selfAliases, report)
				return true
			})
		}
	}
	return out
}

// checkOneUse applies the escape/retention rules to one use of an aliased
// result variable.
func checkOneUse(prog *Program, pkg *Package, fd *ast.FuncDecl, parents map[ast.Node]ast.Node,
	calls []*aliasCall, ac *aliasCall, calleeName string, v *types.Var, id *ast.Ident,
	selfAliases bool, report func(pos token.Pos, format string, args ...any)) {

	switch p := skipParens(parents, id).(type) {
	case *ast.AssignStmt:
		// id on the RHS: where does it land?
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != ast.Expr(id) {
				continue
			}
			lhs := p.Lhs[0]
			if len(p.Lhs) == len(p.Rhs) {
				lhs = p.Lhs[i]
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				report(id.Pos(), "aliased result of %s stored in field %s outlives the scratch reuse cycle", calleeName, exprText(l))
			case *ast.IndexExpr:
				report(id.Pos(), "aliased result of %s stored into %s outlives the scratch reuse cycle", calleeName, exprText(l))
			case *ast.Ident:
				if obj, ok := pkg.Info.Info.Uses[l].(*types.Var); ok && obj.Parent() == obj.Pkg().Scope() {
					report(id.Pos(), "aliased result of %s stored in package variable %s", calleeName, l.Name)
				} else if ac.loop != nil && !declaredWithin(pkg, l, ac.loop) && p.Tok != token.DEFINE {
					report(id.Pos(), "aliased result of %s assigned to %s declared outside the loop; it is recycled next iteration", calleeName, l.Name)
				}
			}
		}
	case *ast.ReturnStmt:
		if !selfAliases {
			report(id.Pos(), "aliased result of %s returned; mark %s //texlint:scratchalias or copy before returning", calleeName, fd.Name.Name)
		}
	case *ast.SendStmt:
		if p.Value == ast.Expr(id) || ast.Unparen(p.Value) == ast.Expr(id) {
			report(id.Pos(), "aliased result of %s sent on a channel; the receiver outlives the scratch reuse cycle", calleeName)
		}
	case *ast.KeyValueExpr:
		if ast.Unparen(p.Value) == ast.Expr(id) {
			report(id.Pos(), "aliased result of %s stored in a composite literal", calleeName)
		}
	case *ast.CompositeLit:
		report(id.Pos(), "aliased result of %s stored in a composite literal", calleeName)
	}

	// append(acc, res...) / append(acc, res) / append(acc, res[i]) retain
	// aliased memory or an element view of it.
	if call, argIdx := enclosingAppendArg(pkg, parents, id); call != nil && argIdx >= 1 {
		report(id.Pos(), "append retains aliased result of %s beyond the next scratch reuse; copy the elements instead", calleeName)
	}

	// Use after a later call reused the same scratch.
	for _, other := range calls {
		if other == ac || other.key == "" || other.key != ac.key {
			continue
		}
		if other.call.Pos() > ac.call.Pos() && id.Pos() >= other.call.End() {
			report(id.Pos(), "aliased result of %s read after %s reused scratch %s", calleeName, funcDisplayName(other.callee), ac.key)
			break
		}
	}

	// Inside the defining call's loop, a use textually before the call
	// reads the previous iteration's (already recycled) result.
	if ac.loop != nil && id.End() <= ac.call.Pos() &&
		id.Pos() >= ac.loop.Pos() && id.End() <= ac.loop.End() {
		report(id.Pos(), "aliased result of %s read before the call in the same loop body: that is the previous iteration's scratch contents", calleeName)
	}
}

// scratchKey identifies which scratch a call aliases: the receiver if its
// type names a *Scratch, else the first argument whose (pointer) type's
// name contains "Scratch".
func scratchKey(pkg *Package, call *ast.CallExpr, callee *types.Func) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && isScratchType(sig.Recv().Type()) {
			return exprText(sel.X)
		}
	}
	for _, arg := range call.Args {
		if tv, ok := pkg.Info.Info.Types[arg]; ok && isScratchType(tv.Type) {
			return exprText(ast.Unparen(arg))
		}
	}
	return ""
}

func isScratchType(t types.Type) bool {
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
	name := n.Obj().Name()
	return name == "Scratch" || (len(name) > 7 && name[len(name)-7:] == "Scratch")
}

// --- parent-map helpers ---

func buildParents(body ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// skipParens returns the nearest non-paren ancestor of n.
func skipParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		return p
	}
}

// enclosingLoop finds the nearest for/range statement containing n.
func enclosingLoop(parents map[ast.Node]ast.Node, n ast.Node) ast.Stmt {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p := p.(type) {
		case *ast.ForStmt:
			return p
		case *ast.RangeStmt:
			return p
		}
	}
	return nil
}

// enclosingAppendArg finds a builtin append call having n inside one of
// its arguments, returning the call and the argument index.
func enclosingAppendArg(pkg *Package, parents map[ast.Node]ast.Node, n ast.Node) (*ast.CallExpr, int) {
	for p := parents[n]; p != nil; p = parents[p] {
		call, ok := p.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := pkg.Info.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		for i, arg := range call.Args {
			if n.Pos() >= arg.Pos() && n.End() <= arg.End() {
				return call, i
			}
		}
		return nil, -1
	}
	return nil, -1
}

// declaredWithin reports whether the variable behind ident is declared
// inside the given statement's extent.
func declaredWithin(pkg *Package, id *ast.Ident, s ast.Stmt) bool {
	obj, ok := pkg.Info.Info.Uses[id].(*types.Var)
	if !ok {
		if obj, ok := pkg.Info.Info.Defs[id].(*types.Var); ok {
			return obj.Pos() >= s.Pos() && obj.Pos() < s.End()
		}
		return false
	}
	return obj.Pos() >= s.Pos() && obj.Pos() < s.End()
}
