package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// goleak requires every goroutine spawned from non-test code to have a
// provable exit path. The shapes it rejects:
//
//   - `select {}` with no cases: blocks forever by construction;
//   - an infinite `for`/`for {}` loop whose body contains no way out — no
//     return, no loop-level break, no panic/os.Exit/runtime.Goexit — so
//     the goroutine can never terminate;
//   - `for x := range ch` over a channel that is never closed anywhere in
//     the spawning package: the loop only ends when the channel closes, so
//     a close must be in evidence.
//
// The allowed patterns are the ones the repo actually uses: worker
// goroutines ranging over a channel that the coordinator closes
// (texture.parallelFor), loops with a `<-ctx.Done()` / done-channel select
// arm that returns, and bounded goroutines that simply run to the end of
// their body. Diagnostics anchor at the `go` statement so one
// //texlint:ignore there covers the spawn.
func NewGoLeak() *Analyzer {
	return &Analyzer{
		Name: "goleak",
		Doc:  "require goroutines to have a provable exit path (closed channel, done signal, or bounded body)",
		Run:  runGoLeak,
	}
}

func runGoLeak(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "goleak",
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
		if strings.HasSuffix(prog.Fset.Position(fi.Decl.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			var where string
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
				where = "this goroutine"
			default:
				callee := calleeFunc(fi.Pkg.Info, gs.Call)
				if callee == nil {
					return true
				}
				tf, ok := prog.Funcs[callee.Origin()]
				if !ok {
					return true
				}
				body = tf.Decl.Body
				where = callee.Name()
			}
			if msg := goroutineLeakShape(fi.Pkg, body, where); msg != "" {
				report(gs.Pos(), "%s", msg)
			}
			return true
		})
	}
	return diags
}

// goroutineLeakShape inspects a goroutine body for a shape with no exit
// path and returns a diagnostic message, or "".
func goroutineLeakShape(pkg *Package, body *ast.BlockStmt, where string) string {
	msg := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if msg != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested closures are their own goroutines' problem
		case *ast.SelectStmt:
			if len(n.Body.List) == 0 {
				msg = fmt.Sprintf("%s blocks forever on an empty select; a goroutine with no exit path leaks (give it a done channel or context)", where)
				return false
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				return true
			}
			if !loopHasExit(n.Body) {
				msg = fmt.Sprintf("%s loops forever with no return, break, or termination signal; a goroutine with no exit path leaks (select on ctx.Done() or a done channel inside the loop)", where)
				return false
			}
		case *ast.RangeStmt:
			ch, chName := rangedChannelVar(pkg, n)
			if ch == nil {
				return true
			}
			if !packageCloses(pkg, ch) {
				msg = fmt.Sprintf("%s ranges over channel %s, which is never closed in this package; the loop (and goroutine) can never finish — close the channel when producers are done", where, chName)
				return false
			}
		}
		return true
	})
	return msg
}

// loopHasExit reports whether an infinite-for body can leave the loop: a
// return anywhere (not in a nested function literal), an unlabeled break
// at loop level (not captured by a nested for/range/switch/select), a
// goto, or a call that never returns (panic, os.Exit, log.Fatal*,
// runtime.Goexit).
func loopHasExit(body *ast.BlockStmt) bool {
	exit := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if n == nil || exit {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if exit {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exit = true
				return false
			case *ast.BranchStmt:
				switch m.Tok {
				case token.BREAK:
					// A labeled break targets an outer statement: treat as
					// exit. Unlabeled break exits only at loop level.
					if m.Label != nil || breakable {
						exit = true
						return false
					}
				case token.GOTO:
					exit = true // conservatively an exit
					return false
				}
			case *ast.ForStmt, *ast.RangeStmt:
				// break inside binds to the inner loop.
				if inner, ok := m.(*ast.ForStmt); ok {
					walk(inner.Body, false)
				} else {
					walk(m.(*ast.RangeStmt).Body, false)
				}
				return false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// break inside binds to the switch/select, not the loop.
				var list []ast.Stmt
				switch s := m.(type) {
				case *ast.SwitchStmt:
					list = s.Body.List
				case *ast.TypeSwitchStmt:
					list = s.Body.List
				case *ast.SelectStmt:
					list = s.Body.List
				}
				for _, c := range list {
					switch cc := c.(type) {
					case *ast.CaseClause:
						for _, s := range cc.Body {
							walk(s, false)
						}
					case *ast.CommClause:
						for _, s := range cc.Body {
							walk(s, false)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if neverReturns(m) {
					exit = true
					return false
				}
			}
			return true
		})
	}
	walk(body, true)
	return exit
}

// neverReturns recognizes calls that terminate the goroutine or process.
func neverReturns(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// rangedChannelVar resolves the ranged expression to a channel-typed
// variable (local, field, or package var), or nil when it is not a
// channel or not a stable variable.
func rangedChannelVar(pkg *Package, rs *ast.RangeStmt) (*types.Var, string) {
	x := ast.Unparen(rs.X)
	tv, ok := pkg.Info.Info.Types[x]
	if !ok {
		return nil, ""
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return nil, ""
	}
	switch x := x.(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Info.Uses[x].(*types.Var); ok {
			return obj, x.Name
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Info.Uses[x.Sel].(*types.Var); ok {
			return obj, exprText(x)
		}
	}
	return nil, ""
}

// packageCloses reports whether any file in the package contains a
// close(...) whose argument resolves to the same variable object.
func packageCloses(pkg *Package, ch *types.Var) bool {
	for _, f := range pkg.Files {
		closed := false
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || closed {
				return !closed
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "close" || len(call.Args) != 1 {
				return true
			}
			if _, builtin := pkg.Info.Info.Uses[id].(*types.Builtin); !builtin {
				return true // shadowed close, not the builtin
			}
			switch a := ast.Unparen(call.Args[0]).(type) {
			case *ast.Ident:
				if pkg.Info.Info.Uses[a] == ch {
					closed = true
				}
			case *ast.SelectorExpr:
				if pkg.Info.Info.Uses[a.Sel] == ch {
					closed = true
				}
			}
			return true
		})
		if closed {
			return true
		}
	}
	return false
}
