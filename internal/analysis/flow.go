package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Value-flow layer: module-local taint propagation for the wiretaint check.
// Taint enters at untrusted sources — expressions typed net.Conn or
// *http.Request (intrinsic), and the parameters of functions annotated
// //texlint:untrusted — and follows per-function def-use chains: through
// assignments, conversions, arithmetic, composite literals, container
// reads, and standard-library calls (a result computed from tainted input
// is tainted). Interprocedural flow rides the PR-3 call graph: a call site
// passing a tainted argument taints the callee's parameter, a callee whose
// results are tainted taints its callers, and the module iterates to a
// fixpoint over monotone per-function summaries. The call edges taint
// travelled are recorded so findings can render a source→sink chain.
//
// Two scoping rules keep the propagation honest instead of explosive:
//
//   - Within a function, taint is field-path granular: writing a hostile
//     value into rec.ID taints rec.ID (and rec as a returned whole), not
//     sibling fields like rec.Features that were built from sanitized
//     dimensions.
//   - Across a call edge, taint only travels through types that can carry
//     raw wire claims: integers, strings, []byte, byte streams (io.Reader
//     interfaces, bufio.Reader, net.Conn, *http.Request), and structs of
//     the callee's own package (decode state like wire.reader). A domain
//     object handed across a package boundary — a *blas.Matrix built by
//     its constructor — is committed data whose invariants are its owning
//     package's contract, not a length claim.
//
// Sanitizers kill taint. Recognition is positional, in the spirit of the
// collect-then-sort heuristic: once a value has been compared against a
// constant (or a len/cap-derived expression), passed through the builtin
// min/max with a constant bound, or routed through an internal/limits
// helper, later uses of that value are clean. The analysis is therefore a
// reviewable approximation, not a proof — exactly like the rest of the
// suite — but it is tight enough that every decoder in the tree passes
// with zero escape hatches.

// limitsPkgSuffix identifies the canonical sanitizer package: calls into it
// clean their arguments, its results are trusted, and its own guarded
// allocation loops are not re-analyzed.
const limitsPkgSuffix = "internal/limits"

// taintSummary is one function's interprocedural taint contract. Both maps
// grow monotonically during the module fixpoint.
type taintSummary struct {
	// params marks parameters observed to receive untrusted data at some
	// call site (all of them for //texlint:untrusted functions). Key -1 is
	// the receiver.
	params map[int]bool
	// results marks results that may carry untrusted data.
	results []bool
}

// flowGraph drives the module-wide taint fixpoint and records the call
// edges taint travelled for chain rendering.
type flowGraph struct {
	prog  *Program
	check string
	sums  map[*types.Func]*taintSummary
	// callers[f] holds the functions whose analysis consumed f's result
	// summary; they re-run when it grows.
	callers map[*types.Func]map[*types.Func]bool
	// parent[f] is the adjacent function taint arrived from (a caller that
	// tainted f's parameter, or a callee whose tainted result f consumed);
	// rootOf[f] is the source function at the start of that chain.
	parent map[*types.Func]*types.Func
	rootOf map[*types.Func]*types.Func
	queued map[*types.Func]bool
	queue  []*types.Func
}

// buildFlow runs the module taint fixpoint and returns the converged graph.
func buildFlow(prog *Program, check string) *flowGraph {
	fg := &flowGraph{
		prog:    prog,
		check:   check,
		sums:    make(map[*types.Func]*taintSummary),
		callers: make(map[*types.Func]map[*types.Func]bool),
		parent:  make(map[*types.Func]*types.Func),
		rootOf:  make(map[*types.Func]*types.Func),
		queued:  make(map[*types.Func]bool),
	}
	fns := fg.sortedFuncs()
	for _, fn := range fns {
		sig := fn.Type().(*types.Signature)
		sum := &taintSummary{params: make(map[int]bool), results: make([]bool, sig.Results().Len())}
		fg.sums[fn] = sum
		if prog.Funcs[fn].Ann.Untrusted {
			if sig.Recv() != nil {
				sum.params[-1] = true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				sum.params[i] = true
			}
			fg.rootOf[fn] = fn
		}
	}
	for _, fn := range fns {
		fg.enqueue(fn)
	}
	// The summaries are monotone (param and result sets only grow), so the
	// fixpoint terminates; the budget is a safety net, not a tuning knob.
	for budget := 50 * (len(fns) + 1); len(fg.queue) > 0 && budget > 0; budget-- {
		fn := fg.queue[0]
		fg.queue = fg.queue[1:]
		fg.queued[fn] = false
		fg.analyze(fn, nil)
	}
	return fg
}

// sortedFuncs returns every analyzable function in source order (excluding
// the sanitizer package itself).
func (fg *flowGraph) sortedFuncs() []*types.Func {
	var fns []*types.Func
	for fn, fi := range fg.prog.Funcs {
		if hasSuffixPath(fi.Pkg.Path, limitsPkgSuffix) {
			continue
		}
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		return fg.prog.Fset.Position(fns[i].Pos()).Offset < fg.prog.Fset.Position(fns[j].Pos()).Offset
	})
	return fns
}

func (fg *flowGraph) enqueue(fn *types.Func) {
	if fg.sums[fn] == nil || fg.queued[fn] {
		return
	}
	fg.queued[fn] = true
	fg.queue = append(fg.queue, fn)
}

// rootFor returns fn's chain root, making fn its own root when taint
// originated locally (annotation or intrinsic source).
func (fg *flowGraph) rootFor(fn *types.Func) *types.Func {
	if r := fg.rootOf[fn]; r != nil {
		return r
	}
	fg.rootOf[fn] = fn
	return fn
}

// chainFor renders "source -> ... -> fn" along the recorded taint edges,
// or "" when fn is itself the source (or untainted).
func (fg *flowGraph) chainFor(fn *types.Func) string {
	return chainPath(fn, fg.parent)
}

// requestParamTaint records that caller passes untrusted data into
// callee's parameter idx (-1 = receiver), growing the callee summary and
// the chain bookkeeping.
func (fg *flowGraph) requestParamTaint(caller, callee *types.Func, idx int) {
	sum := fg.sums[callee]
	if sum == nil || sum.params[idx] {
		return
	}
	sum.params[idx] = true
	if fg.rootOf[callee] == nil {
		fg.parent[callee] = caller
		fg.rootOf[callee] = fg.rootFor(caller)
	}
	fg.enqueue(callee)
}

// analyze runs the per-function propagation: seed parameter taint from the
// summary, collect sanitizer positions, iterate the def-use walk to a local
// fixpoint, then publish result taint. With report non-nil it additionally
// scans for sinks (the final pass, after the module fixpoint converged).
func (fg *flowGraph) analyze(fn *types.Func, report func(pos token.Pos, msg string)) {
	fi := fg.prog.Funcs[fn]
	if fi == nil {
		return
	}
	st := &taintState{
		fg:          fg,
		fn:          fn,
		fi:          fi,
		info:        fi.Pkg.Info,
		tainted:     make(map[types.Object]bool),
		taintedPath: make(map[string]bool),
		sanAt:       make(map[string]token.Pos),
	}
	sig := fn.Type().(*types.Signature)
	st.results = make([]bool, sig.Results().Len())
	sum := fg.sums[fn]
	if sum.params[-1] && sig.Recv() != nil {
		st.setTaint(sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sum.params[i] {
			st.setTaint(sig.Params().At(i))
		}
	}
	st.collectSanitizers(fi.Decl.Body)
	st.markClosureReturns(fi.Decl.Body)
	for pass := 0; pass < 4; pass++ {
		st.changed = false
		st.propagate(fi.Decl.Body)
		if !st.changed {
			break
		}
	}
	// Publish result taint; callers that consumed the old summary re-run.
	grown := false
	for i, t := range st.results {
		if t && !sum.results[i] {
			sum.results[i] = true
			grown = true
		}
	}
	if grown {
		for caller := range fg.callers[fn] {
			fg.enqueue(caller)
		}
	}
	if report != nil {
		st.reportSinks(fi.Decl.Body, report)
	}
}

// taintState is the per-function propagation state.
type taintState struct {
	fg   *flowGraph
	fn   *types.Func
	fi   *FuncInfo
	info *PackageInfo
	// tainted is whole-object taint: parameters of source functions and
	// variables assigned a tainted value outright.
	tainted map[types.Object]bool
	// taintedPath is field-path taint ("rec.ID"): a hostile value written
	// into one field does not taint its siblings.
	taintedPath map[string]bool
	// sanAt is path-granular (rendered expression -> position): sanitizing
	// r.pos must not clean the payload r.b.
	sanAt       map[string]token.Pos
	results     []bool
	changed     bool
	closureRets map[*ast.ReturnStmt]bool
}

func (st *taintState) setTaint(obj types.Object) {
	if obj == nil || obj.Name() == "_" {
		return
	}
	if !st.tainted[obj] {
		st.tainted[obj] = true
		st.changed = true
	}
}

func (st *taintState) setTaintPath(path string) {
	if path == "" || path == "<expr>" || path == "_" {
		return
	}
	if !st.taintedPath[path] {
		st.taintedPath[path] = true
		st.changed = true
	}
}

// pathTainted reports whether path, a prefix of it, or an extension of it
// is recorded as tainted ("rec.A" taints "rec.A.B" and vice versa).
func (st *taintState) pathTainted(path string) bool {
	for p := range st.taintedPath {
		if p == path || strings.HasPrefix(path, p+".") || strings.HasPrefix(p, path+".") ||
			strings.HasPrefix(path, p+"[") || strings.HasPrefix(p, path+"[") {
			return true
		}
	}
	return false
}

// markClosureReturns records returns belonging to nested function literals
// so they are not attributed to the declaration's own results.
func (st *taintState) markClosureReturns(body *ast.BlockStmt) {
	st.closureRets = make(map[*ast.ReturnStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if r, ok := m.(*ast.ReturnStmt); ok {
				st.closureRets[r] = true
			}
			return true
		})
		return true
	})
}

// collectSanitizers records where values are bounds-checked: comparisons
// whose other side is constant or len/cap-derived, and arguments routed
// through internal/limits helpers.
func (st *taintState) collectSanitizers(body *ast.BlockStmt) {
	// A loop condition drives the loop, it does not guard it: "i < n" must
	// not count as a bounds check on n (it is wiretaint's loop-bound sink).
	forConds := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			forConds[f.Cond] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if forConds[n] {
				return true
			}
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if st.boundLike(n.Y) {
					st.sanitizePaths(n.X, n.Pos())
				}
				if st.boundLike(n.X) {
					st.sanitizePaths(n.Y, n.Pos())
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(st.info, n); fn != nil && hasSuffixPath(funcPkgPath(fn), limitsPkgSuffix) {
				for _, arg := range n.Args {
					st.sanitizePaths(arg, n.Pos())
				}
			}
		}
		return true
	})
}

// boundLike reports whether an expression is usable as a bound: a constant,
// an untainted variable (a budget field, a configured cap), or something
// derived from len/cap of committed data.
func (st *taintState) boundLike(e ast.Expr) bool {
	if tv, ok := st.info.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch b := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		// Comparing against a value the attacker does not control is a
		// bounds check; comparing two tainted values is not.
		return !st.exprTainted(b)
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			if _, isBuiltin := st.info.Info.Uses[id].(*types.Builtin); isBuiltin {
				found = true
			}
		}
		return true
	})
	return found
}

// sanitizePaths marks every variable path mentioned in e as clean from pos
// onward (the compared value has been bounds-checked).
func (st *taintState) sanitizePaths(e ast.Expr, pos token.Pos) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		key := exprText(e)
		if old, ok := st.sanAt[key]; !ok || pos < old {
			st.sanAt[key] = pos
		}
	case *ast.BinaryExpr:
		st.sanitizePaths(e.X, pos)
		st.sanitizePaths(e.Y, pos)
	case *ast.UnaryExpr:
		st.sanitizePaths(e.X, pos)
	case *ast.CallExpr:
		// A conversion like int(l) sanitizes the converted value.
		if tv, ok := st.info.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			st.sanitizePaths(e.Args[0], pos)
		}
	}
}

// sanitizedBefore reports whether the value path of e was bounds-checked at
// a position before its use.
func (st *taintState) sanitizedBefore(e ast.Expr) bool {
	san, ok := st.sanAt[exprText(e)]
	return ok && san < e.Pos()
}

// typeUntrusted reports whether a value of this type is external input by
// construction: a network connection or an inbound HTTP request.
func typeUntrusted(t types.Type) bool {
	return namedTypeIn(t, "net", "Conn") || namedTypeIn(t, "net/http", "Request")
}

// streamType reports whether t is a byte stream: an interface with a Read
// method (io.Reader and friends) or a bufio wrapper.
func streamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if namedTypeIn(t, "bufio", "Reader") || namedTypeIn(t, "bufio", "Scanner") {
		return true
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Read" {
				return true
			}
		}
	}
	return false
}

// carrierType reports whether a value of type t can carry raw wire claims
// across a call boundary: integers and strings (length/id claims),
// []byte (undecoded payload), byte streams and connections, and named
// structs — restricted to the callee's own package when calleePkg is
// non-nil (decode state like wire.reader), or any struct when anyStruct is
// set (stdlib out-parameters like a json target). Everything else — float
// matrices, keypoint slices, domain objects from other packages — is
// committed data.
func carrierType(t types.Type, calleePkg *types.Package, anyStruct bool) bool {
	if t == nil {
		return false
	}
	if typeUntrusted(t) || streamType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsInteger|types.IsString) != 0
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
			return true
		}
	}
	pt := t
	if p, ok := pt.(*types.Pointer); ok {
		pt = p.Elem()
	}
	if n, ok := pt.(*types.Named); ok {
		if _, isStruct := n.Underlying().(*types.Struct); isStruct {
			if anyStruct {
				return true
			}
			return calleePkg != nil && n.Obj().Pkg() == calleePkg
		}
	}
	return false
}

// propagate performs one def-use walk over the body, growing the tainted
// set through assignments, declarations, range statements, returns, and
// call side effects.
func (st *taintState) propagate(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				ts := st.valueTaints(n.Rhs[0], len(n.Lhs))
				for i, lhs := range n.Lhs {
					if i < len(ts) && ts[i] {
						st.taintLValue(lhs)
					}
				}
			} else {
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && st.exprTainted(n.Rhs[i]) {
						st.taintLValue(lhs)
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) > 1 {
				ts := st.valueTaints(n.Values[0], len(n.Names))
				for i, name := range n.Names {
					if i < len(ts) && ts[i] {
						st.setTaint(st.info.Info.ObjectOf(name))
					}
				}
			} else {
				for i, name := range n.Names {
					if i < len(n.Values) && st.exprTainted(n.Values[i]) {
						st.setTaint(st.info.Info.ObjectOf(name))
					}
				}
			}
		case *ast.RangeStmt:
			if st.exprTainted(n.X) {
				if n.Value != nil {
					st.taintLValue(n.Value)
				}
				if tv, ok := st.info.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && n.Key != nil {
						st.taintLValue(n.Key)
					}
				}
			}
		case *ast.ReturnStmt:
			if st.closureRets[n] {
				return true
			}
			switch {
			case len(n.Results) == len(st.results):
				for i, res := range n.Results {
					if st.exprTainted(res) {
						st.setResult(i)
					}
				}
			case len(n.Results) == 1 && len(st.results) > 1:
				for i, t := range st.valueTaints(n.Results[0], len(st.results)) {
					if t {
						st.setResult(i)
					}
				}
			case len(n.Results) == 0:
				// Named results returned bare.
				sig := st.fn.Type().(*types.Signature)
				for i := 0; i < sig.Results().Len(); i++ {
					if st.tainted[sig.Results().At(i)] {
						st.setResult(i)
					}
				}
			}
		case *ast.CallExpr:
			st.callEffects(n)
		}
		return true
	})
}

func (st *taintState) setResult(i int) {
	if i < len(st.results) && !st.results[i] {
		st.results[i] = true
		st.changed = true
	}
}

// taintLValue taints an assignment target: identifiers as whole objects,
// selector chains as field paths (siblings stay clean).
func (st *taintState) taintLValue(lhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		st.setTaint(st.info.Info.ObjectOf(lhs))
	case *ast.SelectorExpr:
		st.setTaintPath(exprText(lhs))
	case *ast.IndexExpr:
		// Storing into a container element does not taint the container:
		// a hostile id written into a map is that map's value, not a claim
		// about the map itself (the committed-data rule, write side).
	case *ast.SliceExpr:
		st.taintLValue(lhs.X)
	case *ast.StarExpr:
		st.taintLValue(lhs.X)
	}
}

// rootObj unwraps selectors, indexing, derefs, and parens down to the base
// identifier's object.
func (st *taintState) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return st.info.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprTainted reports whether evaluating e may yield untrusted data.
func (st *taintState) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tv, ok := st.info.Info.Types[e]; ok {
		if tv.Value != nil {
			return false // constants are never tainted
		}
		if tv.Type != nil && typeUntrusted(tv.Type) {
			// Intrinsic source: this function is where untrusted data
			// enters the module.
			st.fg.rootFor(st.fn)
			return true
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.info.Info.ObjectOf(e)
		if obj == nil || st.sanitizedBefore(e) {
			return false
		}
		return st.tainted[obj] || st.pathTainted(e.Name)
	case *ast.SelectorExpr:
		if st.sanitizedBefore(e) {
			return false
		}
		// A field is tainted when its own path is, or when the base object
		// is tainted as a whole (source parameters, decode results).
		if st.pathTainted(exprText(e)) {
			return true
		}
		return st.exprTainted(e.X)
	case *ast.IndexExpr:
		return st.exprTainted(e.X)
	case *ast.SliceExpr:
		return st.exprTainted(e.X)
	case *ast.StarExpr:
		return st.exprTainted(e.X)
	case *ast.ParenExpr:
		return st.exprTainted(e.X)
	case *ast.UnaryExpr:
		return st.exprTainted(e.X)
	case *ast.TypeAssertExpr:
		return st.exprTainted(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return false // booleans are decisions, not data
		}
		return st.exprTainted(e.X) || st.exprTainted(e.Y)
	case *ast.CallExpr:
		for _, t := range st.valueTaints(e, 1) {
			if t {
				return true
			}
		}
		return false
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if st.exprTainted(el) {
				return true
			}
		}
		return false
	}
	return false
}

// valueTaints computes per-result taint for a (possibly multi-value)
// expression in a context expecting want values.
func (st *taintState) valueTaints(e ast.Expr, want int) []bool {
	out := make([]bool, want)
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return st.callResultTaints(e, want)
	case *ast.TypeAssertExpr:
		out[0] = st.exprTainted(e.X)
	case *ast.IndexExpr: // v, ok := m[k]
		out[0] = st.exprTainted(e.X)
	case *ast.UnaryExpr: // v, ok := <-ch
		out[0] = st.exprTainted(e.X)
	default:
		if st.exprTainted(e) {
			out[0] = true
		}
	}
	return out
}

// callResultTaints computes per-result taint for one call: conversions and
// builtins inline, module callees via their summaries, everything else by
// the conservative inputs→outputs rule filtered through carrier types.
func (st *taintState) callResultTaints(call *ast.CallExpr, want int) []bool {
	out := make([]bool, want)
	// Conversion: taint follows the converted value.
	if tv, ok := st.info.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && st.exprTainted(call.Args[0]) {
			out[0] = true
		}
		return out
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.info.Info.Uses[id].(*types.Builtin); isBuiltin {
			if st.builtinTaint(id.Name, call) {
				for i := range out {
					out[i] = true
				}
			}
			return out
		}
	}
	callee := calleeFunc(st.info, call)
	if callee != nil {
		callee = callee.Origin()
		if hasSuffixPath(funcPkgPath(callee), limitsPkgSuffix) {
			return out // the sanitizer package returns trusted values
		}
		sig, _ := callee.Type().(*types.Signature)
		if sum := st.fg.sums[callee]; sum != nil && sig != nil {
			// Module callee: consume its summary (carrier results only) and
			// subscribe to growth.
			cs := st.fg.callers[callee]
			if cs == nil {
				cs = make(map[*types.Func]bool)
				st.fg.callers[callee] = cs
			}
			cs[st.fn] = true
			// Struct results stay taintable only within one package
			// (decode state); across a boundary only raw-claim types
			// carry.
			structPkg := callee.Pkg()
			if structPkg != st.fn.Pkg() {
				structPkg = nil
			}
			any := false
			for i := 0; i < want && i < len(sum.results) && i < sig.Results().Len(); i++ {
				out[i] = sum.results[i] && carrierType(sig.Results().At(i).Type(), structPkg, false)
				any = any || out[i]
			}
			if any && st.fg.rootOf[st.fn] == nil && st.fg.rootOf[callee] != nil {
				// Taint flowed callee→caller through a result.
				st.fg.parent[st.fn] = callee
				st.fg.rootOf[st.fn] = st.fg.rootOf[callee]
			}
			return out
		}
		if sig != nil && !st.callInputsTainted(call) {
			return out
		}
		if sig != nil {
			// Stdlib call with tainted input: carrier-typed results come
			// back tainted (binary.Uvarint, strconv.Atoi, bufio reads...).
			for i := 0; i < want && i < sig.Results().Len(); i++ {
				out[i] = carrierType(sig.Results().At(i).Type(), nil, true)
			}
			return out
		}
	}
	// Indirect call through a function value: be conservative on inputs,
	// filter results by the call's type.
	if !st.callInputsTainted(call) {
		return out
	}
	if tv, ok := st.info.Info.Types[call]; ok && tv.Type != nil {
		if tup, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < want && i < tup.Len(); i++ {
				out[i] = carrierType(tup.At(i).Type(), nil, true)
			}
		} else if want > 0 {
			out[0] = carrierType(tv.Type, nil, true)
		}
	}
	return out
}

// builtinTaint models the builtins that matter for length flow.
func (st *taintState) builtinTaint(name string, call *ast.CallExpr) bool {
	switch name {
	case "len", "cap":
		// The length of already-committed data is trusted: only the wire's
		// *claims* about length are not.
		return false
	case "min", "max":
		for _, arg := range call.Args {
			if tv, ok := st.info.Info.Types[arg]; ok && tv.Value != nil {
				return false // clamped against a constant bound
			}
		}
		fallthrough
	case "append":
		for _, arg := range call.Args {
			if st.exprTainted(arg) {
				return true
			}
		}
	}
	return false
}

// callInputsTainted reports whether any receiver or argument of the call
// carries taint.
func (st *taintState) callInputsTainted(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && st.exprTainted(sel.X) {
		return true
	}
	for _, arg := range call.Args {
		if st.exprTainted(arg) {
			return true
		}
	}
	return false
}

// callEffects handles a call's side channels: tainted arguments grow module
// callee summaries (carrier types only), and stdlib calls with tainted
// inputs fill their writable carrier arguments (io.ReadFull into a buffer,
// json.Decode into a request struct).
func (st *taintState) callEffects(call *ast.CallExpr) {
	if tv, ok := st.info.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := st.info.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	callee := calleeFunc(st.info, call)
	if callee != nil {
		callee = callee.Origin()
		if hasSuffixPath(funcPkgPath(callee), limitsPkgSuffix) {
			return
		}
		if st.fg.sums[callee] != nil {
			// An ignore on the call line is the edge-level escape hatch:
			// taint stops here, exactly like Program.reach's traversal.
			if st.fg.prog.Suppressed(st.fg.check, call.Pos()) {
				return
			}
			sig := callee.Type().(*types.Signature)
			// Receiver taint crosses only same-package method calls: the
			// decode-state pattern (reader methods). A tainted domain
			// object's methods called from another package are that
			// package's contract.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sig.Recv() != nil &&
				callee.Pkg() == st.fn.Pkg() && st.exprTainted(sel.X) {
				st.fg.requestParamTaint(st.fn, callee, -1)
			}
			structPkg := callee.Pkg()
			if structPkg != st.fn.Pkg() {
				structPkg = nil
			}
			np := sig.Params().Len()
			for i, arg := range call.Args {
				if !st.exprTainted(arg) {
					continue
				}
				pi := i
				if sig.Variadic() && pi >= np-1 {
					pi = np - 1
				}
				if pi < 0 || pi >= np {
					continue
				}
				if !carrierType(sig.Params().At(pi).Type(), structPkg, false) {
					continue
				}
				st.fg.requestParamTaint(st.fn, callee, pi)
			}
			return
		}
	}
	// Stdlib call: tainted inputs flow into writable carrier arguments.
	if !st.callInputsTainted(call) {
		return
	}
	for _, arg := range call.Args {
		tv, ok := st.info.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		switch tv.Type.Underlying().(type) {
		case *types.Pointer, *types.Slice:
			if carrierType(tv.Type, nil, true) {
				st.taintLValue(arg)
			}
		}
	}
}

// reportSinks scans the body for places where a still-tainted length sizes
// memory: make arguments, slice bounds, indexing, and loop bounds.
func (st *taintState) reportSinks(body *ast.BlockStmt, report func(pos token.Pos, msg string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				return true
			}
			if _, isBuiltin := st.info.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			for _, arg := range n.Args[1:] {
				if st.exprTainted(arg) {
					report(arg.Pos(), "untrusted length flows into make without a bound check; compare against a limit or use internal/limits")
				}
			}
		case *ast.IndexExpr:
			tv, ok := st.info.Info.Types[n.X]
			if !ok || tv.Type == nil || !tv.IsValue() {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				if st.exprTainted(n.Index) {
					report(n.Index.Pos(), "untrusted value used as a slice index without a bound check")
				}
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil && st.exprTainted(b) {
					report(b.Pos(), "untrusted value used as a slice bound without a bound check")
				}
			}
		case *ast.ForStmt:
			cond, ok := n.Cond.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch cond.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
				if st.exprTainted(cond.X) || st.exprTainted(cond.Y) {
					report(cond.Pos(), "untrusted value bounds this loop without a prior limit check")
				}
			}
		}
		return true
	})
}
