package analysis

import (
	"fmt"
	"go/token"
	"go/types"
)

// hotalloc: every function annotated //texlint:hotpath, and everything it
// transitively calls within the module, must be free of heap allocations.
// This turns the runtime AllocsPerRun guard on engine.Search into a static
// whole-program gate: an allocation introduced three packages down the
// call chain is reported at its source line, with the chain that reaches
// it.
//
// Traversal is pruned at //texlint:coldpath functions (with a mandatory
// reason) and at call sites carrying a //texlint:ignore hotalloc comment —
// the edge-level escape hatch for "this callee allocates by design and the
// hot caller only reaches it in an amortized or setup case".

// NewHotAlloc returns the hot-path allocation check.
func NewHotAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "functions marked //texlint:hotpath (and their callees) must not heap-allocate",
		Run:  runHotAlloc,
	}
}

func runHotAlloc(prog *Program) []Diagnostic {
	var roots []*types.Func
	for fn, fi := range prog.Funcs {
		if fi.Ann.Hot {
			roots = append(roots, fn)
		}
	}
	order, parent := prog.reach(roots, "hotalloc", func(fi *FuncInfo) bool { return fi.Ann.Cold })

	var out []Diagnostic
	for _, fn := range order {
		fi := prog.Funcs[fn]
		chain := chainPath(fn, parent)
		suffix := ""
		if chain != "" {
			suffix = fmt.Sprintf(" (hot path: %s)", chain)
		}
		scanAllocs(fi.Pkg, fi.Decl, prog.InModule, func(pos token.Pos, msg string) {
			out = append(out, Diagnostic{
				Pos:     prog.Fset.Position(pos),
				Check:   "hotalloc",
				Message: msg + suffix,
				Chain:   chain,
			})
		})
	}
	return out
}
