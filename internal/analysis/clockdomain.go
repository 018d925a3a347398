package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// clockdomain: the discrete-event simulator keeps its own clock and draws
// its randomness from seeded generators, and the paper's calibrated
// timings depend on neither mixing with the machine's. Nothing in, or
// *reachable* from, simulator code — including the kernel payload closures
// that knn hands to gpusim streams — may read the wall clock or the global
// math/rand source. (The wall-clock benchmark harness is the dual: it must
// use real time, and lives outside this domain by construction.)
//
// Roots are (a) every function declared in a simulator package
// (inSimulator), (b) functions annotated //texlint:clockdomain, and (c) the
// bodies of function literals passed to gpusim Stream/Device methods
// (kernel payloads execute under the simulated clock even though they are
// declared elsewhere).

// simulatorPackages are the packages whose results must reproduce bit for
// bit: the device model and the numeric path that runs on it. clockdomain
// and maporder take every function declared in them as a root.
var simulatorPackages = []string{
	"internal/gpusim", "internal/engine", "internal/blas",
	"internal/knn", "internal/half", "internal/cache",
}

// inSimulator reports whether the import path is one of simulatorPackages.
func inSimulator(pkgPath string) bool {
	for _, s := range simulatorPackages {
		if hasSuffixPath(pkgPath, s) {
			return true
		}
	}
	return false
}

// NewClockDomain returns the clock-domain check.
func NewClockDomain() *Analyzer {
	return &Analyzer{
		Name: "clockdomain",
		Doc:  "simulator code, and everything it reaches, must not read the wall clock or the global math/rand source",
		Run:  runClockDomain,
	}
}

// wallClockFuncs are the time package entry points that read or schedule
// against the machine clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func runClockDomain(prog *Program) []Diagnostic {
	// why names what put each root in the domain; a function that is a root
	// for several reasons keeps the first (scope, annotation, then payload).
	why := make(map[*types.Func]string)
	var roots []*types.Func
	addRoot := func(fn *types.Func, reason string) {
		if _, ok := why[fn]; !ok {
			why[fn] = reason
			roots = append(roots, fn)
		}
	}
	for fn, fi := range prog.Funcs {
		switch {
		case inSimulator(fi.Pkg.Path):
			addRoot(fn, "declared in "+fi.Pkg.Path)
		case fi.Ann.ClockRoot:
			addRoot(fn, "annotated //texlint:clockdomain")
		}
	}

	var out []Diagnostic
	report := func(pos token.Pos, msg string) {
		out = append(out, Diagnostic{Pos: prog.Fset.Position(pos), Check: "clockdomain", Message: msg})
	}

	// Kernel payloads: function literals passed to gpusim stream/device
	// methods run on the simulated timeline. Scan the literal in place and
	// add the module functions it calls as traversal roots.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg.Info, call)
				if callee == nil || !hasSuffixPath(funcPkgPath(callee), gpusimPath) {
					return true
				}
				if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() == nil {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := ast.Unparen(arg).(*ast.FuncLit)
					if !ok {
						continue
					}
					label := fmt.Sprintf("%s payload", funcDisplayName(callee))
					scanWallClock(pkg, lit.Body, label, report)
					for _, cfn := range literalCallees(pkg, lit) {
						if prog.Funcs[cfn] != nil {
							addRoot(cfn, "called from "+label)
						}
					}
				}
				return true
			})
		}
	}

	order, parent := prog.reach(roots, "clockdomain", nil)
	for _, fn := range order {
		fi := prog.Funcs[fn]
		root := fn
		for parent[root] != nil {
			root = parent[root]
		}
		context := fmt.Sprintf(" (%s)", why[root])
		if chain := chainPath(fn, parent); chain != "" {
			context = fmt.Sprintf(" (reached via %s; root %s)", chain, why[root])
		}
		scanWallClock(fi.Pkg, fi.Decl.Body, "", func(pos token.Pos, msg string) {
			report(pos, msg+context)
		})
	}
	return out
}

// scanWallClock reports direct reads of the machine's clock or of the
// global math/rand source in one body. label, when non-empty, names the
// enclosing kernel payload. Seeded *rand.Rand values passed explicitly are
// allowed (their methods are not package-level functions), as are the
// rand.New/rand.NewSource constructors.
func scanWallClock(pkg *Package, body ast.Node, label string, report func(pos token.Pos, msg string)) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pkg.Info, call)
		if fn == nil {
			return true
		}
		switch path := funcPkgPath(fn); {
		case path == "time" && wallClockFuncs[fn.Name()]:
			if label != "" {
				report(call.Pos(), fmt.Sprintf("time.%s inside %s: simulated-clock code must not read the wall clock", fn.Name(), label))
			} else {
				report(call.Pos(), fmt.Sprintf("time.%s in simulated-clock code: sim time must flow from the device clock", fn.Name()))
			}
		case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				report(call.Pos(), fmt.Sprintf("%s.%s draws from the global rand source; thread a seeded *rand.Rand instead", path, fn.Name()))
			}
		}
		return true
	})
}

// literalCallees resolves the module-local functions called from a
// function literal.
func literalCallees(pkg *Package, lit *ast.FuncLit) []*types.Func {
	var out []*types.Func
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pkg.Info, call); fn != nil {
			out = append(out, fn.Origin())
		}
		return true
	})
	return out
}
