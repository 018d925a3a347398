package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program analysis: the syntactic checks (perPackage) see one
// package at a time, but the clock-domain and scratch-aliasing contracts
// are properties of call *chains* that cross package boundaries
// (engine.Search -> knn -> blas -> gpusim). Program indexes every function
// declaration across the loaded packages, parses the texlint annotations
// that mark roots and scratch-aliasing APIs, and builds a module-local
// call graph on demand. All packages share one Loader and FileSet, so
// types.Object identity is consistent program-wide and the graph can be
// keyed directly on *types.Func.

// FuncAnn carries the texlint annotations parsed from a function's doc
// comment.
type FuncAnn struct {
	// ScratchAlias marks an API whose results alias a reusable scratch;
	// aliasret tracks its callers, and the function itself may return
	// aliased slices.
	ScratchAlias bool
	// ClockRoot marks a //texlint:clockdomain root for the wall-clock
	// reachability check (functions declared in a simulator package are
	// roots implicitly; the annotation puts code elsewhere — the sim-clock
	// soak, the fault injector — on the same timeline).
	ClockRoot bool
	// Freelist marks a //texlint:freelist recycler: pointer arguments
	// passed to this function return to a freelist, and the caller must
	// not touch them afterwards (poollife enforces the callers).
	Freelist bool
}

// FuncInfo is one function declaration in the program.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Ann  FuncAnn
}

// CallSite is one resolved call edge in the module-local call graph.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// Program bundles the loaded packages for whole-program checks.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Funcs indexes every function/method declaration with a body.
	Funcs map[*types.Func]*FuncInfo

	pkgPaths map[string]bool
	ignore   *ignoreIndex
	callees  map[*types.Func][]CallSite

	// Memoized concurrency-contract summaries (locks.go).
	locksums  map[*types.Func]*lockSummary
	entryheld map[*types.Func]map[string]entryInfo
	transacq  map[*types.Func]map[string]token.Pos
}

// BuildProgram indexes the packages (all loaded through one shared
// Loader/FileSet) for whole-program analysis.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:     pkgs,
		Funcs:    make(map[*types.Func]*FuncInfo),
		pkgPaths: make(map[string]bool),
		callees:  make(map[*types.Func][]CallSite),
	}
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		prog.pkgPaths[pkg.Path] = true
		allFiles = append(allFiles, pkg.Files...)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				prog.Funcs[fn] = &FuncInfo{Obj: fn, Decl: fd, Pkg: pkg, Ann: parseFuncAnn(fd.Doc)}
			}
		}
	}
	if prog.Fset != nil {
		prog.ignore = buildIgnoreIndex(prog.Fset, allFiles)
	}
	return prog
}

// InModule reports whether the import path belongs to the loaded package
// set (i.e. the analyzed module, not the stdlib).
func (p *Program) InModule(path string) bool { return p.pkgPaths[path] }

// Suppressed reports whether a //texlint:ignore directive covers the given
// check at the given position. Whole-program checks use it to prune call
// edges: an ignore on a call line both silences diagnostics there and stops
// traversal into the callee.
func (p *Program) Suppressed(check string, pos token.Pos) bool {
	if p.ignore == nil || !pos.IsValid() {
		return false
	}
	position := p.Fset.Position(pos)
	return p.ignore.suppressed(Diagnostic{Pos: position, Check: check})
}

// Callees resolves (and memoizes) the module-local call edges of fn,
// including calls made inside function literals in its body — a closure's
// calls are attributed to the enclosing declaration.
func (p *Program) Callees(fn *types.Func) []CallSite {
	if sites, ok := p.callees[fn]; ok {
		return sites
	}
	fi := p.Funcs[fn]
	if fi == nil {
		return nil
	}
	var sites []CallSite
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(fi.Pkg.Info, call)
		if callee == nil {
			return true
		}
		callee = callee.Origin()
		if _, ok := p.Funcs[callee]; ok {
			sites = append(sites, CallSite{Callee: callee, Pos: call.Pos()})
		}
		return true
	})
	p.callees[fn] = sites
	return sites
}

// reach walks the module-local call graph breadth-first from roots and
// returns the functions visited in visit order plus the first caller that
// reached each one (roots have no entry, which is what chainPath keys on).
// A call site carrying //texlint:ignore <check> is a reviewed edge and is
// not followed.
//
// Roots are taken by offset within their file, then by position: a
// function reachable from several roots is attributed to the first, so
// the chain a finding prints is stable from run to run.
func (p *Program) reach(roots []*types.Func, check string) (order []*types.Func, parent map[*types.Func]*types.Func) {
	sort.Slice(roots, func(i, j int) bool {
		oi, oj := p.Fset.Position(roots[i].Pos()).Offset, p.Fset.Position(roots[j].Pos()).Offset
		if oi != oj {
			return oi < oj
		}
		return roots[i].Pos() < roots[j].Pos()
	})
	parent = make(map[*types.Func]*types.Func)
	seen := make(map[*types.Func]bool)
	for _, r := range roots {
		if seen[r] {
			continue
		}
		seen[r] = true
		queue := []*types.Func{r}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			order = append(order, fn)
			for _, site := range p.Callees(fn) {
				if seen[site.Callee] || p.Funcs[site.Callee] == nil || p.Suppressed(check, site.Pos) {
					continue
				}
				seen[site.Callee] = true
				parent[site.Callee] = fn
				queue = append(queue, site.Callee)
			}
		}
	}
	return order, parent
}

// chainPath renders "root -> ... -> fn" along reach's first-caller map, or
// "" for roots (whose annotation is on the line above).
func chainPath(fn *types.Func, parent map[*types.Func]*types.Func) string {
	if parent[fn] == nil {
		return ""
	}
	var chain []string
	for f := fn; f != nil; f = parent[f] {
		chain = append(chain, funcDisplayName(f))
	}
	// Reverse: root first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// funcDisplayName renders pkg.Func or pkg.(Recv).Method.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// Annotation directives recognized on function doc comments.
const (
	scratchaliasPrefix = "//texlint:scratchalias"
	clockdomainPrefix  = "//texlint:clockdomain"
	freelistPrefix     = "//texlint:freelist"
	guardsPrefix       = "//texlint:guards"
)

// parseFuncAnn extracts texlint annotations from a doc comment group.
func parseFuncAnn(doc *ast.CommentGroup) FuncAnn {
	var ann FuncAnn
	if doc == nil {
		return ann
	}
	for _, c := range doc.List {
		switch {
		case directiveIs(c.Text, scratchaliasPrefix):
			ann.ScratchAlias = true
		case directiveIs(c.Text, clockdomainPrefix):
			ann.ClockRoot = true
		case directiveIs(c.Text, freelistPrefix):
			ann.Freelist = true
		}
	}
	return ann
}

// directiveIs matches a comment against one directive, requiring the name
// to end at a word boundary so //texlint:guards does not match a future
// //texlint:guards2.
func directiveIs(text, prefix string) bool {
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := text[len(prefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// directiveDiags validates every //texlint: comment in the program:
// unknown directive names, ignores with no check list, ignores naming an
// unknown check, bare ignores with no reason, and guards annotations
// naming no mutex all become findings under the "directive" check.
func (p *Program) directiveDiags(knownChecks map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos: p.Fset.Position(pos), Check: "directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := c.Text
					if !strings.HasPrefix(text, "//texlint:") {
						continue
					}
					switch {
					case directiveIs(text, ignorePrefix):
						rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
						fields := strings.Fields(rest)
						if len(fields) == 0 {
							report(c.Pos(), "texlint:ignore needs a check list and a reason: //texlint:ignore <check>[,<check>...] <reason>")
							continue
						}
						for _, name := range strings.Split(fields[0], ",") {
							name = strings.TrimSpace(name)
							if name != "" && !knownChecks[name] {
								report(c.Pos(), "texlint:ignore names unknown check %q (known: %s)", name, strings.Join(sortedKeys(knownChecks), ", "))
							}
						}
						if len(fields) == 1 {
							report(c.Pos(), "texlint:ignore %s has no reason; bare ignores are not allowed — say why", fields[0])
						}
					case directiveIs(text, guardsPrefix):
						if strings.TrimSpace(strings.TrimPrefix(text, guardsPrefix)) == "" {
							report(c.Pos(), "texlint:guards needs the name of the protecting mutex field: //texlint:guards <mutex>")
						}
					case directiveIs(text, scratchaliasPrefix),
						directiveIs(text, clockdomainPrefix),
						directiveIs(text, freelistPrefix):
						// Valid annotations; nothing to check.
					default:
						name := strings.TrimPrefix(text, "//texlint:")
						if i := strings.IndexAny(name, " \t"); i >= 0 {
							name = name[:i]
						}
						report(c.Pos(), "unknown texlint directive %q (known: ignore, scratchalias, clockdomain, freelist, guards)", name)
					}
				}
			}
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RunAll runs every analyzer once over the loaded packages, validates
// texlint directives, filters suppressed diagnostics, and returns the rest
// sorted by position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	var out []Diagnostic
	for _, a := range analyzers {
		out = append(out, a.Run(prog)...)
	}
	out = append(out, prog.directiveDiags(knownCheckSet())...)
	var kept []Diagnostic
	for _, d := range out {
		if prog.ignore != nil && prog.ignore.suppressed(d) {
			continue
		}
		kept = append(kept, d)
	}
	return sortDiags(kept)
}

func sortDiags(ds []Diagnostic) []Diagnostic {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Pos.Filename != ds[j].Pos.Filename {
			return ds[i].Pos.Filename < ds[j].Pos.Filename
		}
		if ds[i].Pos.Line != ds[j].Pos.Line {
			return ds[i].Pos.Line < ds[j].Pos.Line
		}
		if ds[i].Check != ds[j].Check {
			return ds[i].Check < ds[j].Check
		}
		return ds[i].Message < ds[j].Message
	})
	// Whole-program traversals can reach the same site from several roots;
	// keep one copy of identical findings.
	w := 0
	for i, d := range ds {
		if i > 0 && d == ds[i-1] {
			continue
		}
		ds[w] = d
		w++
	}
	return ds[:w]
}
