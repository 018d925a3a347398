package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// poollife enforces pooled-object lifetimes: once a variable is handed
// back to a recycler — sync.Pool.Put, or any module function annotated
// //texlint:freelist — the caller must not touch it again. The recycler
// may hand the object to another goroutine immediately, so a use-after-put
// is an aliasing race: the late reader observes another request's data.
//
// The analysis is per-function and flow-light: within each function body,
// a use of the variable at a position after the put is flagged unless the
// variable is re-bound first (fresh Get, assignment). A *deferred* put is
// the `defer pool.Put(buf)` idiom — body uses are fine because the put
// runs last — but returning the pooled object from the function escapes it
// past its own recycling and is flagged.
func NewPoolLife() *Analyzer {
	return &Analyzer{
		Name: "poollife",
		Doc:  "flag uses of pooled objects after they are returned to a sync.Pool or //texlint:freelist recycler",
		Run:  runPoolLife,
	}
}

// putSite is one recycle point for one variable.
type putSite struct {
	obj      *types.Var
	end      token.Pos // uses after this flag
	pos      token.Pos
	deferred bool
	what     string // "sync.Pool" or the freelist function name
}

func runPoolLife(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "poollife",
			Message: fmt.Sprintf(format, args...),
		})
	}

	fns := make([]*types.Func, 0, len(prog.Funcs))
	for fn := range prog.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	for _, fn := range fns {
		fi := prog.Funcs[fn]
		checkPoolLife(prog, fi, report)
	}
	return diags
}

func checkPoolLife(prog *Program, fi *FuncInfo, report func(pos token.Pos, format string, args ...any)) {
	info := fi.Pkg.Info

	// Pass 1: collect put sites and variable re-bindings.
	var puts []putSite
	rebinds := make(map[*types.Var][]token.Pos)

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := localVarOf(info, id); obj != nil {
						rebinds[obj] = append(rebinds[obj], id.Pos())
					}
				}
			}
		case *ast.CallExpr:
			obj, what := recycledArg(prog, info, n)
			if obj == nil {
				return true
			}
			puts = append(puts, putSite{
				obj: obj, end: n.End(), pos: n.Pos(),
				deferred: hasDeferParent(fi, n), what: what,
			})
		}
		return true
	})
	if len(puts) == 0 {
		return
	}

	// Pass 2: flag uses after each put. Uses after an immediate put are
	// flagged wherever they appear (the Ident case below, including inside
	// returns). A *deferred* put makes body uses safe, so only escaping
	// the object past its own recycling is flagged: a return result that
	// is the object itself or aliases its storage (v, v.buf, v.buf[i:]).
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				id := aliasSpineRoot(info, res)
				if id == nil {
					continue
				}
				obj := localVarOf(info, id)
				if obj == nil {
					continue
				}
				for _, p := range puts {
					if p.obj == obj && p.deferred {
						report(id.Pos(), "%s is returned, but a deferred %s recycles it when this function exits; the caller would observe a recycled object", id.Name, p.what)
						break
					}
				}
			}
		case *ast.Ident:
			obj := localVarOf(info, n)
			if obj == nil {
				return true
			}
			if isRebindAt(rebinds[obj], n.Pos()) {
				return true // the re-binding itself is not a use
			}
			for _, p := range puts {
				if p.obj != obj || p.deferred {
					continue
				}
				if n.Pos() > p.end && !reboundBetween(rebinds[obj], p.end, n.Pos()) {
					if isSecondPut(prog, fi, n, obj) {
						report(n.Pos(), "%s is recycled twice; the second put hands out an object the pool already owns (double-free aliasing)", n.Name)
					} else {
						report(n.Pos(), "%s is used after being handed back to %s; the recycler may already have reissued it to another goroutine", n.Name, p.what)
					}
					return false
				}
			}
		}
		return true
	})
}

// aliasSpineRoot unwraps a selector/index/slice/deref spine whose result
// can alias the root object's storage and returns the root identifier, or
// nil when the expression does not alias its root (e.g. len(v.buf)).
func aliasSpineRoot(info *PackageInfo, e ast.Expr) *ast.Ident {
	if tv, ok := info.Info.Types[e]; ok && !isPointerish(tv.Type) {
		return nil
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// recycledArg resolves a call to a recycler and returns the recycled local
// variable, if the argument is a plain identifier.
//
// sync.Pool.Put recycles its single argument; a //texlint:freelist module
// function recycles every plain-identifier pointer argument.
func recycledArg(prog *Program, info *PackageInfo, call *ast.CallExpr) (*types.Var, string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, ""
	}
	if isMethodOf(fn, "sync", "Put") && poolRecv(fn) {
		if len(call.Args) == 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				return localVarOf(info, id), "the sync.Pool"
			}
		}
		return nil, ""
	}
	if fi, ok := prog.Funcs[fn.Origin()]; ok && fi.Ann.Freelist {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := localVarOf(info, id); obj != nil && isPointerish(obj.Type()) {
					return obj, fn.Name() + " (a //texlint:freelist recycler)"
				}
			}
		}
	}
	return nil, ""
}

// poolRecv reports whether the method's receiver is sync.Pool.
func poolRecv(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && namedTypeIn(sig.Recv().Type(), "sync", "Pool")
}

// localVarOf resolves an identifier to a function-local (non-field,
// non-package) variable.
func localVarOf(info *PackageInfo, id *ast.Ident) *types.Var {
	obj, ok := info.Info.Uses[id].(*types.Var)
	if !ok {
		obj, ok = info.Info.Defs[id].(*types.Var)
	}
	if !ok || obj.IsField() || obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
		return nil
	}
	return obj
}

// isPointerish reports whether a type can alias pool-owned storage.
func isPointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// hasDeferParent reports whether the call is the direct call of a
// DeferStmt.
func hasDeferParent(fi *FuncInfo, call *ast.CallExpr) bool {
	deferred := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok && ds.Call == call {
			deferred = true
			return false
		}
		return !deferred
	})
	return deferred
}

// isSecondPut reports whether the flagged identifier is itself the
// argument of another recycle call (double-put shape).
func isSecondPut(prog *Program, fi *FuncInfo, id *ast.Ident, obj *types.Var) bool {
	second := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || second {
			return !second
		}
		for _, a := range call.Args {
			if aid, ok := ast.Unparen(a).(*ast.Ident); ok && aid == id {
				if o, _ := recycledArg(prog, fi.Pkg.Info, call); o == obj {
					second = true
				}
			}
		}
		return !second
	})
	return second
}

// reboundBetween reports whether the variable was re-bound in (after, before).
func reboundBetween(binds []token.Pos, after, before token.Pos) bool {
	for _, p := range binds {
		if p > after && p < before {
			return true
		}
	}
	return false
}

// isRebindAt reports whether pos is one of the recorded re-binding sites.
func isRebindAt(binds []token.Pos, pos token.Pos) bool {
	for _, p := range binds {
		if p == pos {
			return true
		}
	}
	return false
}
