package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NewLockCheck builds the lock-hygiene check. It flags two patterns that
// turn a mutex-protected fast path into a serving-stack stall:
//
//  1. a sync mutex held across a blocking operation — channel send or
//     receive, select, time.Sleep, sync.WaitGroup.Wait, blocking I/O
//     (net/os/bufio Read, Write, Flush, Accept, Sync), an HTTP round-trip
//     (net/http Do/Get/Post/PostForm/Head), or a kvstore.Dial/DialTimeout
//     TCP connect;
//  2. a return that leaves the function with a mutex held that no deferred
//     unlock will release.
//
// What is held where comes from lockVisitor (locks.go), the walker
// lockorder and guardedby share: a `go func(){...}` body or any other
// function literal does not inherit its creator's critical section, and a
// mutex with no program-wide identity (a local variable) is not tracked.
func NewLockCheck() *Analyzer {
	return &Analyzer{
		Name: "lockcheck",
		Doc:  "no mutex held across blocking ops; Lock pairs with defer Unlock on early-return paths",
		Run:  runLockCheck,
	}
}

var blockingIOMethods = map[string]bool{
	"Read": true, "Write": true, "Flush": true, "Accept": true, "Sync": true,
	"ReadString": true, "ReadBytes": true, "WriteString": true, "ReadFrom": true, "WriteTo": true,
}

// httpClientCalls are the net/http request entry points (package functions
// and http.Client methods share these names): each is a full round-trip.
var httpClientCalls = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
}

func runLockCheck(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Fset.Position(pos),
			Check:   "lockcheck",
			Message: fmt.Sprintf(format, args...),
		})
	}
	heldAcross := func(pos token.Pos, held heldSet, what string) {
		for _, l := range held.snapshot() {
			report(pos, "%s is held across %s; shrink the critical section", l.expr, what)
		}
	}
	for _, fi := range prog.Funcs {
		v := &lockVisitor{
			info: fi.Pkg.Info,
			onBlock: func(n ast.Node, held heldSet) {
				switch n.(type) {
				case *ast.SendStmt:
					heldAcross(n.Pos(), held, "a channel send")
				case *ast.UnaryExpr:
					heldAcross(n.Pos(), held, "a channel receive")
				case *ast.SelectStmt:
					heldAcross(n.Pos(), held, "a select statement")
				}
			},
			onCall: func(callee *types.Func, pos token.Pos, held heldSet, _ bool) {
				if what := blockingOps(callee); what != "" {
					heldAcross(pos, held, what)
				}
			},
			onReturn: func(ret *ast.ReturnStmt, held heldSet) {
				for _, l := range held.snapshot() {
					if l.deferred {
						continue
					}
					unlock := "Unlock"
					if l.kind == 'R' {
						unlock = "RUnlock"
					}
					report(ret.Pos(), "return with %s still held; use defer %s.%s() or unlock before returning", l.expr, l.expr, unlock)
				}
			},
		}
		v.walkBody(fi.Decl.Body)
	}
	return diags
}

// blockingOps names the operation a call to fn performs that must not run
// under a mutex, or "" when the call does not block.
func blockingOps(fn *types.Func) string {
	if isPkgFunc(fn, "time", "Sleep") {
		return "time.Sleep"
	}
	if isMethodOf(fn, "sync", "Wait") {
		return "sync.WaitGroup.Wait"
	}
	pkg := funcPkgPath(fn)
	if (pkg == "net" || pkg == "os" || pkg == "bufio") && blockingIOMethods[fn.Name()] {
		return fmt.Sprintf("blocking I/O (%s.%s)", pkg, fn.Name())
	}
	// A mutex held across a whole HTTP round-trip or a TCP connect is the
	// worst stall in the serving stack: every other request on that lock
	// queues behind one slow peer.
	if pkg == "net/http" && httpClientCalls[fn.Name()] {
		return fmt.Sprintf("an HTTP round-trip (net/http %s)", fn.Name())
	}
	if hasSuffixPath(pkg, "internal/kvstore") && (fn.Name() == "Dial" || fn.Name() == "DialTimeout") {
		return fmt.Sprintf("kvstore.%s (a TCP connect)", fn.Name())
	}
	return ""
}
