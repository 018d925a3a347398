// Package analysis is texid's project-invariant static-analysis framework.
// It is deliberately stdlib-only: packages are discovered with go/build
// (no go/packages dependency), parsed with go/parser, and type-checked
// with go/types against a recursive source importer, so
// `go run ./cmd/texlint ./...` works from a clean checkout with no
// network access.
//
// The paper's results depend on a deterministic, calibrated timing model
// and a concurrent serving stack; the checks here encode the invariants
// that keep those properties from rotting: nothing reachable from simulator
// code reads the wall clock or the global math/rand source, no scratch
// alias or recycled object outlives its reuse, no goroutine lacks an exit,
// no error is dropped, and no raw binary16 bit pattern is manipulated
// outside internal/half. Lock contracts (order, owned fields, nothing held
// across a blocking call) are not checked here: tests that drive the
// interleaving under -race hold them (DESIGN.md, "Concurrency contracts").
//
// Every mechanism exists once: Program.reach is the only call-graph walk
// and chainPath the only chain renderer.
//
// Diagnostics may be suppressed with an escape hatch comment:
//
//	//texlint:ignore <check>[,<check>...] <reason>
//
// A trailing comment suppresses matching diagnostics on its own line; a
// comment in a declaration's doc group suppresses them for the entire
// declaration. The reason is mandatory: a bare ignore, or one naming an
// unknown check, is itself reported under the "directive" check.
//
// Flow-aware checks (clockdomain, aliasret) follow call chains across
// packages; they are driven by function annotations:
//
//	//texlint:scratchalias          — results alias a reusable scratch; callers are checked
//	//texlint:clockdomain           — extra root for the wall-clock reachability check
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass carries one type-checked package through a per-package check.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *PackageInfo
}

// Analyzer is one pluggable check.
type Analyzer struct {
	// Name identifies the check in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the loaded program and returns its findings. Checks
	// that look at one package at a time wrap themselves with perPackage.
	Run func(*Program) []Diagnostic
}

// perPackage adapts a check that inspects one package at a time: fn runs
// over every loaded package whose import path scope accepts (nil accepts
// all).
func perPackage(scope func(pkgPath string) bool, fn func(*Pass) []Diagnostic) func(*Program) []Diagnostic {
	return func(prog *Program) []Diagnostic {
		var out []Diagnostic
		for _, pkg := range prog.Pkgs {
			if scope != nil && !scope(pkg.Path) {
				continue
			}
			out = append(out, fn(&Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Info})...)
		}
		return out
	}
}

// DefaultAnalyzers returns the check suite. The two syntactic checks
// (errcheck, fp16) look at one package at a time; the rest run over the
// whole Program.
// Scoping lives with each check: clockdomain roots itself at the simulator
// packages (inSimulator), fp16 skips internal/half.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewErrCheck(),
		NewFP16(),
		NewClockDomain(),
		NewAliasRet(),
		NewPoolLife(),
		NewGoLeak(),
	}
}

// knownCheckSet returns the check names valid in a //texlint:ignore list.
// It is derived from the full default suite (not the -checks subset in
// effect), so selecting a subset never turns existing ignores into
// unknown-check errors.
func knownCheckSet() map[string]bool {
	set := make(map[string]bool)
	for _, a := range DefaultAnalyzers() {
		set[a.Name] = true
	}
	return set
}

// ignoreIndex records where //texlint:ignore directives apply.
type ignoreIndex struct {
	// lines maps filename -> line -> set of ignored check names.
	lines map[string]map[int]map[string]bool
	// ranges holds declaration-wide suppressions.
	ranges []ignoreRange
	fset   *token.FileSet
}

type ignoreRange struct {
	file       string
	start, end int // line numbers, inclusive
	checks     map[string]bool
}

const ignorePrefix = "//texlint:ignore"

// parseIgnore extracts the ignored check set from one comment, or nil.
func parseIgnore(text string) map[string]bool {
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
	// The check list is the first whitespace-delimited field; anything
	// after it is the human-readable reason.
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil
	}
	checks := make(map[string]bool)
	for _, c := range strings.Split(fields[0], ",") {
		if c = strings.TrimSpace(c); c != "" {
			checks[c] = true
		}
	}
	return checks
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ig := &ignoreIndex{lines: make(map[string]map[int]map[string]bool), fset: fset}
	for _, f := range files {
		// Doc-group directives suppress their whole declaration.
		for _, decl := range f.Decls {
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc = d.Doc
			case *ast.GenDecl:
				doc = d.Doc
			}
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				if checks := parseIgnore(c.Text); checks != nil {
					start := fset.Position(decl.Pos())
					end := fset.Position(decl.End())
					ig.ranges = append(ig.ranges, ignoreRange{
						file: start.Filename, start: start.Line, end: end.Line, checks: checks,
					})
				}
			}
		}
		// Any directive also suppresses its own line (covers trailing
		// comments and standalone comments inside function bodies, where
		// the next line is what they annotate).
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checks := parseIgnore(c.Text)
				if checks == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := ig.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					ig.lines[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := byLine[line]
					if set == nil {
						set = make(map[string]bool)
						byLine[line] = set
					}
					for k := range checks {
						set[k] = true
					}
				}
			}
		}
	}
	return ig
}

func (ig *ignoreIndex) suppressed(d Diagnostic) bool {
	if set := ig.lines[d.Pos.Filename][d.Pos.Line]; set[d.Check] {
		return true
	}
	for _, r := range ig.ranges {
		if r.file == d.Pos.Filename && r.start <= d.Pos.Line && d.Pos.Line <= r.end && r.checks[d.Check] {
			return true
		}
	}
	return false
}
