// Package analysis is texid's static check for dropped errors. It is
// deliberately stdlib-only: packages are discovered with go/build (no
// go/packages dependency), parsed with go/parser, and type-checked with
// go/types against a recursive source importer, so
// `go run ./cmd/texlint ./...` works from a clean checkout with no network
// access.
//
// One check is left, errcheck: no error result is silently dropped in
// non-test code. Every other project invariant is held by a test or by the
// type system (DESIGN.md, "Correctness invariants & texlint"): the
// simulated clock by the determinism digests, scratch aliasing and pooled
// lifetimes by reuse rows, goroutine exits by each spawning package's leak
// check, binary16 discipline by half.Float16 being an opaque struct, lock
// contracts by interleaving tests under -race.
//
// A finding may be suppressed with an escape hatch comment:
//
//	//texlint:ignore <check>[,<check>...] <reason>
//
// A trailing comment suppresses matching diagnostics on its own line; a
// comment in a declaration's doc group suppresses them for the entire
// declaration. The reason is mandatory: a bare ignore, one naming an
// unknown check, or any other //texlint: directive is itself reported
// under the "directive" check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
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

// Pass carries one type-checked package through a check.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *PackageInfo
}

// Analyzer is one pluggable check. It looks at one package at a time.
type Analyzer struct {
	// Name identifies the check in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(*Pass) []Diagnostic
}

// DefaultAnalyzers returns the check suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{NewErrCheck()}
}

// ignoreIndex records where //texlint:ignore directives apply.
type ignoreIndex struct {
	// lines maps filename -> line -> set of ignored check names.
	lines map[string]map[int]map[string]bool
	// ranges holds declaration-wide suppressions.
	ranges []ignoreRange
}

type ignoreRange struct {
	file       string
	start, end int // line numbers, inclusive
	checks     map[string]bool
}

const ignorePrefix = "//texlint:ignore"

// parseIgnore extracts the ignored check set from one comment, or nil.
func parseIgnore(text string) map[string]bool {
	if !directiveIs(text, ignorePrefix) {
		return nil
	}
	// The check list is the first whitespace-delimited field; anything
	// after it is the human-readable reason.
	fields := strings.Fields(text[len(ignorePrefix):])
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

// directiveIs matches a comment against one directive, requiring the name
// to end at a word boundary so //texlint:ignore does not match a future
// //texlint:ignore2.
func directiveIs(text, prefix string) bool {
	if !strings.HasPrefix(text, prefix) {
		return false
	}
	rest := text[len(prefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ig := &ignoreIndex{lines: make(map[string]map[int]map[string]bool)}
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

// directiveDiags validates every //texlint: comment in one package: any
// directive other than ignore, ignores with no check list, ignores naming
// an unknown check, and bare ignores with no reason all become findings
// under the "directive" check. Known checks are those of the full default
// suite.
func directiveDiags(fset *token.FileSet, files []*ast.File) []Diagnostic {
	known := make(map[string]bool)
	var names []string
	for _, a := range DefaultAnalyzers() {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	sort.Strings(names)
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{
			Pos: fset.Position(pos), Check: "directive",
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, "//texlint:") {
					continue
				}
				if !directiveIs(text, ignorePrefix) {
					name := strings.TrimPrefix(text, "//texlint:")
					if i := strings.IndexAny(name, " \t"); i >= 0 {
						name = name[:i]
					}
					report(c.Pos(), "unknown texlint directive %q (the only directive is ignore)", name)
					continue
				}
				fields := strings.Fields(text[len(ignorePrefix):])
				if len(fields) == 0 {
					report(c.Pos(), "texlint:ignore needs a check list and a reason: //texlint:ignore <check>[,<check>...] <reason>")
					continue
				}
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name != "" && !known[name] {
						report(c.Pos(), "texlint:ignore names unknown check %q (known: %s)", name, strings.Join(names, ", "))
					}
				}
				if len(fields) == 1 {
					report(c.Pos(), "texlint:ignore %s has no reason; bare ignores are not allowed — say why", fields[0])
				}
			}
		}
	}
	return out
}

// RunAll runs every analyzer over each loaded package, validates texlint
// directives, filters suppressed diagnostics, and returns the rest sorted
// by position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var kept []Diagnostic
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Info}
		var out []Diagnostic
		for _, a := range analyzers {
			out = append(out, a.Run(pass)...)
		}
		out = append(out, directiveDiags(pkg.Fset, pkg.Files)...)
		ig := buildIgnoreIndex(pkg.Fset, pkg.Files)
		for _, d := range out {
			if !ig.suppressed(d) {
				kept = append(kept, d)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return kept
}
