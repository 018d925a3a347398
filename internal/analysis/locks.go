package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Lock-class machinery shared by the concurrency-contract checks
// (lockcheck, lockorder, guardedby): a lock *class* names one mutex per
// owning type (or one package-level mutex), e.g.
// "texid/internal/engine.Engine.mu". The walker below is the one place
// that knows what a critical section is: it threads a set of held classes
// through a function body — linearly through each statement list, cloning
// at branches, resetting at function-literal and go-statement boundaries
// (a closure does not inherit its creator's critical section) — and reports
// acquisitions, calls, struct-field accesses, blocking channel operations
// and returns together with the locks held at that point.
//
// The tracking is deliberately conservative: a lock acquired inside a
// branch is considered released when the branch joins (the common
// `if bad { mu.Unlock(); return }` shape keeps the outer view correct,
// because the unlocking path leaves the function), and a deferred unlock
// holds the class to the end of the function.

// heldLock is one acquired lock: its class, read/write kind, the rendered
// owner expression ("e" for e.mu.Lock) for instance matching, and the
// mutex operand as written ("e.mu") for messages.
type heldLock struct {
	class string
	kind  byte // 'R' (RLock) or 'W' (Lock)
	recv  string
	expr  string
	pos   token.Pos
	// deferred: a deferred unlock releases this lock when the function
	// exits, so returning with it held is fine.
	deferred bool
}

// heldSet is the set of lock classes held at a program point.
type heldSet map[string]*heldLock

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// snapshot returns the held locks as a sorted slice (stable diagnostics).
func (h heldSet) snapshot() []*heldLock {
	out := make([]*heldLock, 0, len(h))
	for _, l := range h {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// lockMethodKind classifies a sync mutex method name.
func lockMethodKind(name string) (kind byte, acquire, ok bool) {
	switch name {
	case "Lock":
		return 'W', true, true
	case "RLock":
		return 'R', true, true
	case "Unlock":
		return 'W', false, true
	case "RUnlock":
		return 'R', false, true
	}
	return 0, false, false
}

// isSyncMutexType reports whether t (after deref) is sync.Mutex/RWMutex.
func isSyncMutexType(t types.Type) bool {
	return namedTypeIn(t, "sync", "Mutex") || namedTypeIn(t, "sync", "RWMutex")
}

// lockClassOf resolves the lock class of a (R)Lock/(R)Unlock call.
// Returns ok=false for calls that are not sync mutex operations or whose
// mutex cannot be given a stable program-wide identity (local mutex vars).
func lockClassOf(info *PackageInfo, call *ast.CallExpr) (l heldLock, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return l, false, false
	}
	fn := calleeFunc(info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return l, false, false
	}
	kind, acquire, ok := lockMethodKind(fn.Name())
	if !ok {
		return l, false, false
	}
	l.kind = kind
	l.pos = call.Pos()
	l.expr = exprText(sel.X)

	target := ast.Unparen(sel.X)
	tv, hasType := info.Info.Types[target]
	if hasType && isSyncMutexType(tv.Type) {
		switch x := target.(type) {
		case *ast.SelectorExpr:
			// owner.field.Lock(): class is OwnerType.field.
			if otv, ok := info.Info.Types[ast.Unparen(x.X)]; ok {
				if cls := typeClassName(otv.Type); cls != "" {
					l.class = cls + "." + x.Sel.Name
					l.recv = exprText(x.X)
					return l, acquire, true
				}
			}
		case *ast.Ident:
			// mu.Lock(): package-level mutex var, or an untrackable local.
			if obj, ok := info.Info.Uses[x].(*types.Var); ok && obj.Pkg() != nil &&
				obj.Parent() == obj.Pkg().Scope() {
				l.class = obj.Pkg().Path() + "." + obj.Name()
				return l, acquire, true
			}
		}
		return l, false, false
	}
	// t.Lock() through an embedded mutex: class is OwnerType.Mutex.
	if hasType {
		if cls := typeClassName(tv.Type); cls != "" {
			l.class = cls + ".Mutex"
			l.recv = exprText(target)
			return l, acquire, true
		}
	}
	return l, false, false
}

// typeClassName renders pkgpath.TypeName for a (possibly pointered) named
// type, or "".
func typeClassName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// lockClassDisplay shortens a class key for diagnostics: the last two path
// segments are kept ("engine.Engine.mu").
func lockClassDisplay(class string) string {
	short := class
	for i := len(short) - 1; i >= 0; i-- {
		if short[i] == '/' {
			return short[i+1:]
		}
	}
	return short
}

// lockVisitor walks one function body tracking held locks. Callbacks may
// be nil. inLit reports whether the current point is inside a function
// literal (whose execution context is unknown, so caller-entry locks must
// not be assumed there).
type lockVisitor struct {
	info *PackageInfo

	onAcquire func(l *heldLock, held heldSet, inLit bool)
	onCall    func(callee *types.Func, pos token.Pos, held heldSet, inLit bool)
	onAccess  func(sel *ast.SelectorExpr, field *types.Var, write bool, held heldSet, inLit bool)
	// onBlock sees each operation that parks the goroutine by itself: a
	// channel send (*ast.SendStmt), a receive (*ast.UnaryExpr), a select
	// (*ast.SelectStmt, reported once — its comm clauses are not reported
	// again). Blocking calls arrive through onCall.
	onBlock  func(n ast.Node, held heldSet)
	onReturn func(ret *ast.ReturnStmt, held heldSet)

	litDepth int
	inComm   bool // walking a select clause's comm statement
}

func (v *lockVisitor) block(n ast.Node, held heldSet) {
	if v.onBlock != nil && !v.inComm {
		v.onBlock(n, held)
	}
}

func (v *lockVisitor) walkBody(body *ast.BlockStmt) {
	v.walkStmts(body.List, make(heldSet))
}

func (v *lockVisitor) walkStmts(list []ast.Stmt, held heldSet) {
	for _, s := range list {
		v.walkStmt(s, held)
	}
}

func (v *lockVisitor) walkStmt(s ast.Stmt, held heldSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if l, acquire, ok := lockClassOf(v.info, call); ok {
				if acquire {
					if v.onAcquire != nil {
						v.onAcquire(&l, held, v.litDepth > 0)
					}
					lc := l
					held[l.class] = &lc
				} else {
					delete(held, l.class)
				}
				return
			}
		}
		v.scanExpr(s.X, held)
	case *ast.DeferStmt:
		if l, acquire, ok := lockClassOf(v.info, s.Call); ok && !acquire {
			// Deferred unlock: the lock stays held to the end of the
			// function, and leaving the function releases it.
			if h := held[l.class]; h != nil {
				released := *h
				released.deferred = true
				held[l.class] = &released
			}
			return
		}
		v.scanExpr(s.Call, held)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			v.scanTarget(lhs, held, true)
		}
		for _, rhs := range s.Rhs {
			v.scanExpr(rhs, held)
		}
	case *ast.IncDecStmt:
		v.scanTarget(s.X, held, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			v.scanExpr(r, held)
		}
		if v.onReturn != nil {
			v.onReturn(s, held)
		}
	case *ast.SendStmt:
		v.block(s, held)
		v.scanExpr(s.Chan, held)
		v.scanExpr(s.Value, held)
	case *ast.GoStmt:
		// The spawned goroutine does not inherit the critical section;
		// its body is walked with an empty held set. Arguments are
		// evaluated in the caller's context.
		for _, a := range s.Call.Args {
			v.scanExpr(a, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			v.litDepth++
			v.walkStmts(lit.Body.List, make(heldSet))
			v.litDepth--
		}
	case *ast.BlockStmt:
		v.walkStmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			v.walkStmt(s.Init, held)
		}
		v.scanExpr(s.Cond, held)
		v.walkStmts(s.Body.List, held.clone())
		if s.Else != nil {
			v.walkStmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		inner := held.clone()
		if s.Init != nil {
			v.walkStmt(s.Init, inner)
		}
		if s.Cond != nil {
			v.scanExpr(s.Cond, inner)
		}
		v.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			v.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		v.scanExpr(s.X, held)
		v.walkStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			v.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			v.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					v.scanExpr(e, held)
				}
				v.walkStmts(cc.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			v.walkStmt(s.Init, held)
		}
		v.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.walkStmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		v.block(s, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
				if cc.Comm != nil {
					v.inComm = true
					v.walkStmt(cc.Comm, inner)
					v.inComm = false
				}
				v.walkStmts(cc.Body, inner)
			}
		}
	case *ast.LabeledStmt:
		v.walkStmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						v.scanExpr(val, held)
					}
				}
			}
		}
	}
}

// scanTarget handles an assignment target: the leftmost field-selector
// spine is a write, index expressions keep their index as reads.
func (v *lockVisitor) scanTarget(e ast.Expr, held heldSet, write bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		v.reportAccess(e, held, write)
		v.scanTarget(e.X, held, false)
	case *ast.IndexExpr:
		v.scanTarget(e.X, held, write)
		v.scanExpr(e.Index, held)
	case *ast.SliceExpr:
		v.scanTarget(e.X, held, write)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			if idx != nil {
				v.scanExpr(idx, held)
			}
		}
	case *ast.StarExpr:
		v.scanTarget(e.X, held, write)
	case *ast.Ident:
		// Plain variables carry no guard contract.
	default:
		v.scanExpr(e, held)
	}
}

// scanExpr walks an expression for calls and field reads. Function
// literals are walked with a fresh held set; sync/atomic call arguments
// are skipped entirely (the atomic-access allowance for guarded fields).
func (v *lockVisitor) scanExpr(e ast.Expr, held heldSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			v.litDepth++
			v.walkStmts(n.Body.List, make(heldSet))
			v.litDepth--
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// Taking the address of a field can hand out a mutable
				// view; treat it as a write to the spine.
				v.scanTarget(n.X, held, true)
				return false
			}
			if n.Op == token.ARROW {
				v.block(n, held)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(v.info, n); fn != nil {
				if funcPkgPath(fn) == "sync/atomic" {
					return false // atomic access allowance
				}
				if v.onCall != nil {
					v.onCall(fn.Origin(), n.Pos(), held, v.litDepth > 0)
				}
			}
		case *ast.SelectorExpr:
			v.reportAccess(n, held, false)
			// Children are still visited, so a nested field selector
			// (a.b in a.b.c) reports its own read.
		}
		return true
	})
}

// reportAccess forwards a field selection to onAccess.
func (v *lockVisitor) reportAccess(sel *ast.SelectorExpr, held heldSet, write bool) {
	if v.onAccess == nil {
		return
	}
	obj, ok := v.info.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return
	}
	v.onAccess(sel, obj, write, held, v.litDepth > 0)
}

// --- whole-program lock summaries ---

// acquireRec is one lock acquisition with the locks held just before it.
type acquireRec struct {
	lock  heldLock
	held  []*heldLock
	inLit bool
}

// callRec is one module-local call with the locks held at the call site.
type callRec struct {
	callee *types.Func
	pos    token.Pos
	held   []*heldLock
	inLit  bool
}

// lockSummary is the per-function result of one walker pass.
type lockSummary struct {
	acquires []acquireRec
	calls    []callRec
}

// lockSummaries runs the held-tracking walker over every function
// declaration once and memoizes the results on the Program.
func (p *Program) lockSummaries() map[*types.Func]*lockSummary {
	if p.locksums != nil {
		return p.locksums
	}
	sums := make(map[*types.Func]*lockSummary, len(p.Funcs))
	for fn, fi := range p.Funcs {
		sum := &lockSummary{}
		v := &lockVisitor{
			info: fi.Pkg.Info,
			onAcquire: func(l *heldLock, held heldSet, inLit bool) {
				sum.acquires = append(sum.acquires, acquireRec{lock: *l, held: held.snapshot(), inLit: inLit})
			},
			onCall: func(callee *types.Func, pos token.Pos, held heldSet, inLit bool) {
				if _, ok := p.Funcs[callee]; ok {
					sum.calls = append(sum.calls, callRec{callee: callee, pos: pos, held: held.snapshot(), inLit: inLit})
				}
			},
		}
		v.walkBody(fi.Decl.Body)
		sums[fn] = sum
	}
	p.locksums = sums
	return sums
}

// entryInfo is what is known to be held on entry to a function: the
// intersection over every in-module call site. kind degrades to 'R' when
// any caller holds only the read half; recv is kept only when all callers
// agree on the rendered owner expression.
type entryInfo struct {
	kind byte
	recv string
}

// entryHeld computes, for every function, the set of lock classes held on
// entry on *every* in-module call path (greatest fixpoint, starting from
// "unknown" and intersecting call-site held sets until stable). Functions
// with no in-module callers — exported API surface, goroutine roots — get
// the empty set. Call sites inside function literals contribute their
// local held set only (the literal's execution context is unknown).
func (p *Program) entryHeld() map[*types.Func]map[string]entryInfo {
	if p.entryheld != nil {
		return p.entryheld
	}
	sums := p.lockSummaries()

	// Deterministic function order for the fixpoint sweep.
	fns := make([]*types.Func, 0, len(sums))
	for fn := range sums {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	// callersOf[f] lists (caller, held-at-site) pairs.
	type site struct {
		caller *types.Func
		held   []*heldLock
		inLit  bool
	}
	callersOf := make(map[*types.Func][]site)
	for _, fn := range fns {
		for _, c := range sums[fn].calls {
			callersOf[c.callee] = append(callersOf[c.callee], site{caller: fn, held: c.held, inLit: c.inLit})
		}
	}

	// nil map value = "unknown" (⊤). Intersect downward until stable.
	entry := make(map[*types.Func]map[string]entryInfo, len(fns))
	for _, fn := range fns {
		if len(callersOf[fn]) == 0 {
			entry[fn] = map[string]entryInfo{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			sites := callersOf[fn]
			if len(sites) == 0 {
				continue
			}
			var acc map[string]entryInfo // nil = ⊤ so far
			for _, s := range sites {
				atSite := make(map[string]entryInfo)
				for _, h := range s.held {
					atSite[h.class] = entryInfo{kind: h.kind, recv: h.recv}
				}
				if !s.inLit {
					if ce := entry[s.caller]; ce == nil {
						// Caller still unknown: its entry could include
						// anything, so this site constrains nothing yet.
						continue
					} else {
						for cls, info := range ce {
							if _, dup := atSite[cls]; !dup {
								atSite[cls] = entryInfo{kind: info.kind}
							}
						}
					}
				}
				if acc == nil {
					acc = atSite
					continue
				}
				for cls, info := range acc {
					other, ok := atSite[cls]
					if !ok {
						delete(acc, cls)
						continue
					}
					if other.kind == 'R' {
						info.kind = 'R'
					}
					if other.recv != info.recv {
						info.recv = ""
					}
					acc[cls] = info
				}
			}
			if acc == nil {
				continue // every caller still unknown: stay ⊤
			}
			if !entryEqual(entry[fn], acc) {
				entry[fn] = acc
				changed = true
			}
		}
	}
	// Anything still unknown is unreachable from an entry point; treat it
	// as holding nothing (maximally strict).
	for _, fn := range fns {
		if entry[fn] == nil {
			entry[fn] = map[string]entryInfo{}
		}
	}
	p.entryheld = entry
	return entry
}

func entryEqual(a, b map[string]entryInfo) bool {
	if a == nil || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// transAcquires computes, for every function, the set of lock classes it
// (or any transitive module-local callee) may acquire. Sets only grow, so
// a simple iterate-to-fixpoint terminates.
func (p *Program) transAcquires() map[*types.Func]map[string]token.Pos {
	if p.transacq != nil {
		return p.transacq
	}
	sums := p.lockSummaries()
	acq := make(map[*types.Func]map[string]token.Pos, len(sums))
	for fn, sum := range sums {
		m := make(map[string]token.Pos)
		for _, a := range sum.acquires {
			if _, ok := m[a.lock.class]; !ok {
				m[a.lock.class] = a.lock.pos
			}
		}
		acq[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range sums {
			m := acq[fn]
			for _, c := range sum.calls {
				for cls, pos := range acq[c.callee] {
					if _, ok := m[cls]; !ok {
						m[cls] = pos
						changed = true
					}
				}
			}
		}
	}
	p.transacq = acq
	return acq
}
