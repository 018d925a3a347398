package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// lockorder infers the module-local lock-acquisition graph across function
// boundaries and reports (a) cycles in it — two lock classes each acquired
// while the other is held on some path is a potential deadlock — and
// (b) reacquisition of a mutex already held by the same owner, including
// the RLock→Lock upgrade on an RWMutex, which self-deadlocks as soon as a
// writer queues between the two acquisitions.
//
// Edges come from two sources: a direct acquisition with another class
// held (local walker state plus the entry-held fixpoint for what every
// caller holds), and a call made with a class held into a function that
// transitively acquires another class. Same-class edges via calls are
// dropped — a call chain touching two *instances* of one class (two
// engines, two shards) is ordinary sharding, not self-deadlock — while
// direct same-owner reacquisition is reported separately with exact
// positions.
func NewLockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc:  "detect lock-order cycles and RLock→Lock upgrades across the module-local call graph",
		Run:  runLockOrder,
	}
}

// lockEdge is one ordered pair in the acquisition graph with a witness.
type lockEdge struct {
	from, to string
	pos      token.Pos // where `to` is acquired (or the call that acquires it)
	viaCall  bool
}

func runLockOrder(prog *Program) []Diagnostic {
	sums := prog.lockSummaries()
	entry := prog.entryHeld()
	trans := prog.transAcquires()

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "lockorder",
			Message: fmt.Sprintf(format, args...),
		})
	}

	// Deterministic function order.
	fns := make([]*types.Func, 0, len(sums))
	for fn := range sums {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	edges := make(map[string]map[string]lockEdge)
	addEdge := func(from, to string, pos token.Pos, viaCall bool) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[string]lockEdge)
			edges[from] = m
		}
		if old, ok := m[to]; !ok || pos < old.pos {
			m[to] = lockEdge{from: from, to: to, pos: pos, viaCall: viaCall}
		}
	}

	for _, fn := range fns {
		sum := sums[fn]
		ent := entry[fn]
		for _, a := range sum.acquires {
			// Locks held at the acquisition: local walker state, plus
			// whatever every caller provably holds (unless we are inside a
			// function literal, whose execution context is unknown).
			heldClasses := make(map[string]entryInfo)
			if !a.inLit {
				for cls, info := range ent {
					heldClasses[cls] = info
				}
			}
			for _, h := range a.held {
				heldClasses[h.class] = entryInfo{kind: h.kind, recv: h.recv}
			}
			for cls, info := range heldClasses {
				if cls != a.lock.class {
					addEdge(cls, a.lock.class, a.lock.pos, false)
					continue
				}
				// Same class already held: only a real self-deadlock when
				// it is provably the same instance (matching non-empty
				// rendered owner, or a package-level mutex with no owner
				// expression at all).
				sameInstance := info.recv == a.lock.recv &&
					(info.recv != "" || !hasOwnerExpr(cls))
				if !sameInstance {
					continue
				}
				if info.kind == 'R' && a.lock.kind == 'W' {
					report(a.lock.pos, "RLock→Lock upgrade on %s: Lock while the read half is already held self-deadlocks once a writer queues between them; release the RLock first (or redesign the critical section)", lockClassDisplay(cls))
				} else if a.lock.kind == 'W' || info.kind == 'W' {
					report(a.lock.pos, "%s is already held here; reacquiring it self-deadlocks (Go mutexes are not reentrant)", lockClassDisplay(cls))
				}
				// R-after-R on an RWMutex is legal (shared readers) and
				// not reported.
			}
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 && (c.inLit || len(ent) == 0) {
				continue
			}
			heldClasses := make(map[string]bool)
			if !c.inLit {
				for cls := range ent {
					heldClasses[cls] = true
				}
			}
			for _, h := range c.held {
				heldClasses[h.class] = true
			}
			for acquired := range trans[c.callee] {
				for cls := range heldClasses {
					addEdge(cls, acquired, c.pos, true)
				}
			}
		}
	}

	diags = append(diags, reportLockCycles(prog, edges)...)
	return diags
}

// hasOwnerExpr reports whether a class key names a struct field mutex
// (which has per-instance owners) as opposed to a package-level var.
func hasOwnerExpr(class string) bool {
	// Field classes are pkgpath.Type.field — two dots after the last
	// slash; package vars are pkgpath.name — one dot.
	short := lockClassDisplay(class)
	dots := 0
	for i := 0; i < len(short); i++ {
		if short[i] == '.' {
			dots++
		}
	}
	return dots >= 2
}

// reportLockCycles finds strongly connected components of the class graph
// and reports each cycle once, at the lexically first witness edge.
func reportLockCycles(prog *Program, edges map[string]map[string]lockEdge) []Diagnostic {
	nodes := make([]string, 0, len(edges))
	seen := make(map[string]bool)
	for from, m := range edges {
		if !seen[from] {
			seen[from] = true
			nodes = append(nodes, from)
		}
		for to := range m {
			if !seen[to] {
				seen[to] = true
				nodes = append(nodes, to)
			}
		}
	}
	sort.Strings(nodes)

	// Tarjan SCC, iterative enough for our graph sizes via recursion.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	var diags []Diagnostic
	for _, comp := range sccs {
		sort.Strings(comp)
		// Pick the earliest witness edge inside the component.
		var witness lockEdge
		var havePos bool
		for _, from := range comp {
			inComp := make(map[string]bool, len(comp))
			for _, c := range comp {
				inComp[c] = true
			}
			for to, e := range edges[from] {
				if inComp[to] && (!havePos || e.pos < witness.pos) {
					witness, havePos = e, true
				}
			}
		}
		names := make([]string, len(comp))
		for i, c := range comp {
			names[i] = lockClassDisplay(c)
		}
		pos := token.NoPos
		if havePos {
			pos = witness.pos
		}
		diags = append(diags, Diagnostic{
			Pos: prog.Fset.Position(pos), Check: "lockorder",
			Message: fmt.Sprintf("lock-order cycle between %s: each is acquired while the other is held on some path; pick one global order and stick to it", joinAnd(names)),
		})
	}
	return diags
}

// joinAnd renders ["a","b","c"] as "a, b and c".
func joinAnd(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	case 2:
		return names[0] + " and " + names[1]
	}
	out := ""
	for i, n := range names[:len(names)-1] {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out + " and " + names[len(names)-1]
}
