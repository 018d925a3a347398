// Package analysis is texid's static check for dropped errors, errcheck:
// no error result is silently dropped in non-test code. It is deliberately
// stdlib-only: packages are discovered with go/build (no go/packages
// dependency), parsed with go/parser, and type-checked with go/types
// against a recursive source importer, so `go run ./cmd/texlint ./...`
// works from a clean checkout with no network access.
//
// Every other project invariant is held by a test or by the type system
// (DESIGN.md, "Correctness invariants & texlint"): the simulated clock by
// the determinism digests, scratch aliasing and pooled lifetimes by reuse
// rows, goroutine exits by each spawning package's leak check, binary16
// discipline by half.Float16 being an opaque struct, lock contracts by
// interleaving tests under -race.
//
// There is no suppression comment. A deliberate drop is written `_ = f()`
// with a comment saying why.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one dropped error, anchored to the call's position.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [errcheck] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// RunAll runs errcheck over each loaded package and returns the findings
// sorted by position.
func RunAll(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, errCheck(pkg)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags
}
