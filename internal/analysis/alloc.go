package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Conservative allocation classifier: walks one function body and reports
// every construct that may heap-allocate — make, new, growing append,
// string concatenation, slice/map composite literals, &composite literals,
// map writes, closure captures, interface boxing at call boundaries,
// []byte/string conversions, goroutine launches, and calls into stdlib
// helpers that are known to allocate (fmt, sort.Slice, strings.Join, ...).
//
// Two flow-sensitive allowances keep the hot path annotatable without
// drowning in ignores:
//
//   - cold blocks: statements from which every path ends in an error
//     return or panic (per the CFG) may allocate — error formatting is
//     off the steady-state path by construction;
//   - amortized grows: allocations inside an if-block whose condition
//     reads cap() or len() are the standard grow-once-then-reuse idiom
//     (scratch slabs, pooled buffers) and are allowed;
//   - filter-in-place: append to a slice introduced as `dst := src[:0]`
//     never exceeds the donor's capacity and is allowed.
//
// Everything else on a hot path must be fixed, or annotated away — at a
// call edge or in place — with a reason.

type allocScan struct {
	pkg      *Package
	fd       *ast.FuncDecl
	inModule func(path string) bool
	report   func(pos token.Pos, msg string)

	cold map[ast.Stmt]bool
	// filterSlices holds variables introduced as `dst := src[:0]`;
	// appending to them reuses the donor's backing array.
	filterSlices map[types.Object]bool
}

// scanAllocs reports every potential heap allocation in fd's body.
// inModule distinguishes module packages (whose functions the hot-path
// traversal visits separately) from the stdlib.
func scanAllocs(pkg *Package, fd *ast.FuncDecl, inModule func(string) bool, report func(pos token.Pos, msg string)) {
	w := &allocScan{
		pkg: pkg, fd: fd, inModule: inModule, report: report,
		cold:         BuildCFG(fd.Body).ColdStmts(pkg.Info),
		filterSlices: make(map[types.Object]bool),
	}
	w.stmtList(fd.Body.List, false)
}

func (w *allocScan) info() *types.Info { return w.pkg.Info.Info }

func (w *allocScan) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *allocScan) stmtList(list []ast.Stmt, allowed bool) {
	for _, s := range list {
		w.stmt(s, allowed)
	}
}

func (w *allocScan) stmt(s ast.Stmt, allowed bool) {
	if s == nil {
		return
	}
	allowed = allowed || w.cold[s]
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmtList(s.List, allowed)
	case *ast.IfStmt:
		w.stmt(s.Init, allowed)
		w.expr(s.Cond, allowed)
		// Amortized-grow idiom: a body guarded by a cap()/len() test runs
		// only when a reusable buffer is outgrown.
		w.stmt(s.Body, allowed || condReadsCapLen(s.Cond))
		w.stmt(s.Else, allowed)
	case *ast.ForStmt:
		w.stmt(s.Init, allowed)
		w.expr(s.Cond, allowed)
		w.stmt(s.Post, allowed)
		w.stmt(s.Body, allowed)
	case *ast.RangeStmt:
		w.expr(s.X, allowed)
		w.stmt(s.Body, allowed)
	case *ast.SwitchStmt:
		w.stmt(s.Init, allowed)
		w.expr(s.Tag, allowed)
		w.stmt(s.Body, allowed)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, allowed)
		w.stmt(s.Assign, allowed)
		w.stmt(s.Body, allowed)
	case *ast.SelectStmt:
		w.stmt(s.Body, allowed)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, allowed)
		}
		w.stmtList(s.Body, allowed)
	case *ast.CommClause:
		w.stmt(s.Comm, allowed)
		w.stmtList(s.Body, allowed)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, allowed)
	case *ast.AssignStmt:
		w.assign(s, allowed)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, allowed)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, allowed)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, allowed)
		}
	case *ast.GoStmt:
		if !allowed {
			w.report(s.Pos(), "go statement launches a goroutine (allocates) on the hot path")
		}
		w.callArgs(s.Call, allowed)
	case *ast.DeferStmt:
		w.callArgs(s.Call, allowed)
	case *ast.SendStmt:
		w.expr(s.Chan, allowed)
		w.expr(s.Value, allowed)
	case *ast.IncDecStmt:
		w.expr(s.X, allowed)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// no expressions
	}
}

// assign handles map writes, string +=, and the filter-in-place pattern,
// then descends into both sides.
func (w *allocScan) assign(s *ast.AssignStmt, allowed bool) {
	// dst := src[:0] introduces a filter-in-place slice.
	if s.Tok == token.DEFINE && len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if isZeroReslice(s.Rhs[i]) {
				if obj := w.info().Defs[id]; obj != nil {
					w.filterSlices[obj] = true
				}
			}
		}
	}
	for _, lhs := range s.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if _, isMap := typeUnder(w.typeOf(ix.X)).(*types.Map); isMap && !allowed {
				w.report(lhs.Pos(), fmt.Sprintf("map write to %s on the hot path (may allocate or rehash)", exprText(ix.X)))
			}
			w.expr(ix.X, allowed)
			w.expr(ix.Index, allowed)
			continue
		}
		// Plain ident targets carry no allocation; selector/star targets
		// may still contain interesting subexpressions.
		if _, ok := lhs.(*ast.Ident); !ok {
			w.expr(lhs, allowed)
		}
	}
	if s.Tok == token.ADD_ASSIGN && isStringType(w.typeOf(s.Lhs[0])) && !allowed {
		w.report(s.Pos(), "string += concatenation allocates on the hot path")
	}
	for _, rhs := range s.Rhs {
		w.expr(rhs, allowed)
	}
}

func (w *allocScan) expr(e ast.Expr, allowed bool) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		w.call(e, allowed)
	case *ast.FuncLit:
		// A literal not consumed directly by a call is a materialized
		// closure; if it captures variables it is heap-allocated.
		if caps := w.captures(e); len(caps) > 0 && !allowed {
			w.report(e.Pos(), fmt.Sprintf("closure capturing %s escapes on the hot path", strings.Join(caps, ", ")))
		}
		w.funcLitBody(e, allowed)
	case *ast.CompositeLit:
		w.compositeLit(e, allowed, false)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				if !allowed {
					w.report(e.Pos(), fmt.Sprintf("&%s escapes to the heap on the hot path", compositeLitName(w, cl)))
				}
				w.compositeLit(cl, allowed, true)
				return
			}
		}
		w.expr(e.X, allowed)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isStringType(w.typeOf(e.X)) && !allowed {
			w.report(e.Pos(), "string concatenation allocates on the hot path")
		}
		w.expr(e.X, allowed)
		w.expr(e.Y, allowed)
	case *ast.ParenExpr:
		w.expr(e.X, allowed)
	case *ast.StarExpr:
		w.expr(e.X, allowed)
	case *ast.SelectorExpr:
		w.expr(e.X, allowed)
	case *ast.IndexExpr:
		w.expr(e.X, allowed)
		w.expr(e.Index, allowed)
	case *ast.IndexListExpr:
		w.expr(e.X, allowed)
	case *ast.SliceExpr:
		w.expr(e.X, allowed)
		w.expr(e.Low, allowed)
		w.expr(e.High, allowed)
		w.expr(e.Max, allowed)
	case *ast.TypeAssertExpr:
		w.expr(e.X, allowed)
	case *ast.KeyValueExpr:
		w.expr(e.Key, allowed)
		w.expr(e.Value, allowed)
	}
}

// funcLitBody scans a literal's body with its own control-flow graph, so
// the literal's error paths count as cold just like a declaration's.
func (w *allocScan) funcLitBody(lit *ast.FuncLit, allowed bool) {
	for s, cold := range BuildCFG(lit.Body).ColdStmts(w.pkg.Info) {
		if cold {
			w.cold[s] = true
		}
	}
	w.stmtList(lit.Body.List, allowed)
}

// captures lists outer local variables referenced by the literal.
func (w *allocScan) captures(lit *ast.FuncLit) []string {
	seen := make(map[*types.Var]bool)
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.info().Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured = declared in the enclosing function but outside the
		// literal. Package-level variables are direct references, not
		// captures.
		if v.Pos() >= w.fd.Pos() && v.Pos() < w.fd.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			seen[v] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}

func (w *allocScan) compositeLit(cl *ast.CompositeLit, allowed, addressed bool) {
	switch typeUnder(w.typeOf(cl)).(type) {
	case *types.Slice:
		if !allowed {
			w.report(cl.Pos(), "slice literal allocates on the hot path")
		}
	case *types.Map:
		if !allowed {
			w.report(cl.Pos(), "map literal allocates on the hot path")
		}
	}
	for _, el := range cl.Elts {
		w.expr(el, allowed)
	}
}

func compositeLitName(w *allocScan, cl *ast.CompositeLit) string {
	if cl.Type != nil {
		return exprText(cl.Type) + "{...}"
	}
	return "composite literal{...}"
}

// call classifies one call expression: conversion, builtin, resolved
// function, interface method, or call through a function value.
func (w *allocScan) call(call *ast.CallExpr, allowed bool) {
	info := w.info()
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		w.conversion(call, tv.Type, allowed)
		return
	}

	// Builtins: make, new, append, panic, len, cap, copy, ...
	if id := calleeIdent(fun); id != nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			w.builtin(call, b.Name(), allowed)
			return
		}
	}

	if callee := calleeFunc(w.pkg.Info, call); callee != nil {
		callee = callee.Origin()
		w.resolvedCall(call, callee, allowed)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X, allowed) // receiver expression may itself allocate
		}
		w.callArgs(call, allowed)
		return
	}

	// Call through a function value.
	if !allowed && !w.funcValueOK(fun) {
		w.report(call.Pos(), fmt.Sprintf("call through stored function value %s on the hot path; hotalloc cannot follow it", exprText(fun)))
	}
	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: no closure escapes; scan the body.
		w.funcLitBody(lit, allowed)
	} else {
		w.expr(fun, allowed)
	}
	w.callArgs(call, allowed)
}

// funcValueOK allows calls through func-typed parameters and locals of the
// current function (the kernel-callback pattern: gpusim's run(fn) invokes
// what the caller passed, and the caller's literal body is scanned where
// it is written). Stored fields and globals stay opaque and are flagged.
func (w *allocScan) funcValueOK(fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := w.info().Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() >= w.fd.Pos() && v.Pos() < w.fd.End()
}

// callArgs scans call arguments; function literals passed directly as
// arguments are not materialized closures from this function's point of
// view (the callee decides whether they escape), so only their bodies are
// scanned.
func (w *allocScan) callArgs(call *ast.CallExpr, allowed bool) {
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			w.funcLitBody(lit, allowed)
			continue
		}
		w.expr(arg, allowed)
	}
}

func (w *allocScan) builtin(call *ast.CallExpr, name string, allowed bool) {
	switch name {
	case "make":
		if !allowed {
			w.report(call.Pos(), "make allocates on the hot path")
		}
	case "new":
		if !allowed {
			w.report(call.Pos(), "new allocates on the hot path")
		}
	case "append":
		if !allowed && !w.appendInPlace(call) {
			w.report(call.Pos(), fmt.Sprintf("append to %s may grow on the hot path (pre-size the buffer or reuse a scratch)", exprText(call.Args[0])))
		}
	case "panic":
		// Panic paths are cold by definition; their arguments may allocate.
		allowed = true
	}
	for _, arg := range call.Args {
		w.expr(arg, allowed)
	}
}

// appendInPlace recognizes appends that provably reuse an existing backing
// array: append(x[:0], ...) directly, or append(dst, ...) where dst was
// introduced as `dst := src[:0]`.
func (w *allocScan) appendInPlace(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	first := ast.Unparen(call.Args[0])
	if isZeroReslice(first) {
		return true
	}
	if id, ok := first.(*ast.Ident); ok {
		if obj := w.info().Uses[id]; obj != nil && w.filterSlices[obj] {
			return true
		}
	}
	return false
}

func (w *allocScan) conversion(call *ast.CallExpr, target types.Type, allowed bool) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	defer w.expr(arg, allowed)
	if allowed {
		return
	}
	src := w.typeOf(arg)
	tu, su := typeUnder(target), typeUnder(src)
	switch t := tu.(type) {
	case *types.Slice:
		if isStringType(src) {
			w.report(call.Pos(), "[]byte(string) conversion copies on the hot path")
		}
		_ = t
	case *types.Basic:
		if t.Kind() == types.String {
			if _, ok := su.(*types.Slice); ok {
				w.report(call.Pos(), "string([]byte) conversion copies on the hot path")
			}
		}
	case *types.Interface:
		if boxes(src) {
			w.report(call.Pos(), fmt.Sprintf("conversion of %s to interface boxes on the hot path", types.TypeString(src, nil)))
		}
	}
}

// resolvedCall checks a statically-resolved function or method call:
// stdlib allocators, dynamic dispatch on module interfaces, and interface
// boxing of arguments.
func (w *allocScan) resolvedCall(call *ast.CallExpr, callee *types.Func, allowed bool) {
	if allowed {
		return
	}
	path := funcPkgPath(callee)
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return
	}
	if sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if w.inModule(path) {
			w.report(call.Pos(), fmt.Sprintf("dynamic dispatch through interface method %s on the hot path; hotalloc cannot follow it", callee.Name()))
		}
		return
	}
	if msg := stdlibAllocMsg(callee, path); msg != "" {
		w.report(call.Pos(), msg)
		return
	}
	w.checkBoxing(call, sig)
}

// stdlibAllocMsg returns a finding for stdlib calls known to allocate.
func stdlibAllocMsg(callee *types.Func, path string) string {
	if path == "reflect" {
		return "reflect." + callee.Name() + " on the hot path (reflection allocates)"
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if namedTypeIn(recv, "strings", "Builder") || namedTypeIn(recv, "bytes", "Buffer") {
			return fmt.Sprintf("%s.%s may grow its buffer on the hot path", types.TypeString(recv, types.RelativeTo(callee.Pkg())), callee.Name())
		}
		return ""
	}
	if allocFuncs[path+"."+callee.Name()] {
		return path + "." + callee.Name() + " allocates on the hot path"
	}
	return ""
}

// allocFuncs lists package-level stdlib functions that always allocate.
var allocFuncs = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Appendf": true,
	"fmt.Printf": true, "fmt.Println": true, "fmt.Print": true,
	"fmt.Fprintf": true, "fmt.Fprintln": true, "fmt.Fprint": true,
	"errors.New":   true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strings.Replace": true, "strings.ReplaceAll": true,
	"strings.ToUpper": true, "strings.ToLower": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"math/rand.New": true, "math/rand.NewSource": true, "math/rand.Perm": true,
	"bytes.Join": true, "bytes.Repeat": true, "bytes.Split": true,
	"bytes.Fields": true, "bytes.Clone": true,
	"io.ReadAll": true, "os.ReadFile": true, "os.WriteFile": true,
	"bufio.NewReader": true, "bufio.NewWriter": true,
}

// checkBoxing reports concrete values boxed into interface parameters.
func (w *allocScan) checkBoxing(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, not boxed per-arg
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(typeUnder(pt)) {
			continue
		}
		at := w.typeOf(arg)
		if tv, ok := w.info().Types[arg]; ok && tv.IsNil() {
			continue
		}
		if boxes(at) {
			w.report(arg.Pos(), fmt.Sprintf("argument of type %s boxed into interface parameter on the hot path", types.TypeString(at, nil)))
		}
	}
}

// boxes reports whether storing a value of type t in an interface requires
// a heap allocation: pointer-shaped types (pointers, channels, maps,
// funcs, unsafe pointers) and interfaces do not.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch typeUnder(t).(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		b := typeUnder(t).(*types.Basic)
		return b.Kind() != types.UnsafePointer && b.Kind() != types.UntypedNil
	}
	return true
}

// --- small shared helpers ---

func calleeIdent(fun ast.Expr) *ast.Ident {
	switch fun := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isStringType(t types.Type) bool {
	b, ok := typeUnder(t).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isZeroReslice matches x[:0] (and x[0:0], x[:0:cap]).
func isZeroReslice(e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.High == nil {
		return false
	}
	lit, ok := ast.Unparen(se.High).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && constant.Compare(constant.MakeFromLiteral(lit.Value, token.INT, 0), token.EQL, constant.MakeInt64(0))
}

// condReadsCapLen reports whether a condition expression contains a cap()
// or len() builtin call — the guard of the amortized-grow idiom.
func condReadsCapLen(cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
			found = true
			return false
		}
		return true
	})
	return found
}
