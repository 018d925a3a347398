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
// *reachable* from, simulator code may read the wall clock or the global
// math/rand source. (The wall-clock benchmark harness is the dual: it must
// use real time, and lives outside this domain by construction.)
//
// Roots are (a) every function declared in a simulator package
// (inSimulator) and (b) functions annotated //texlint:clockdomain.

// simulatorPackages are the packages whose results must reproduce bit for
// bit: the device model and the numeric path that runs on it. clockdomain
// takes every function declared in them as a root.
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
	// why names what put each root in the domain.
	why := make(map[*types.Func]string)
	var roots []*types.Func
	for fn, fi := range prog.Funcs {
		switch {
		case inSimulator(fi.Pkg.Path):
			why[fn] = "declared in " + fi.Pkg.Path
		case fi.Ann.ClockRoot:
			why[fn] = "annotated //texlint:clockdomain"
		default:
			continue
		}
		roots = append(roots, fn)
	}

	var out []Diagnostic
	order, parent := prog.reach(roots, "clockdomain")
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
		scanWallClock(fi.Pkg, fi.Decl.Body, func(pos token.Pos, msg string) {
			out = append(out, Diagnostic{Pos: prog.Fset.Position(pos), Check: "clockdomain", Message: msg + context})
		})
	}
	return out
}

// scanWallClock reports direct reads of the machine's clock or of the
// global math/rand source in one body. Seeded *rand.Rand values passed
// explicitly are allowed (their methods are not package-level functions),
// as are the rand.New/rand.NewSource constructors.
func scanWallClock(pkg *Package, body ast.Node, report func(pos token.Pos, msg string)) {
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
			report(call.Pos(), fmt.Sprintf("time.%s in simulated-clock code: sim time must flow from the device clock", fn.Name()))
		case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				report(call.Pos(), fmt.Sprintf("%s.%s draws from the global rand source; thread a seeded *rand.Rand instead", path, fn.Name()))
			}
		}
		return true
	})
}
