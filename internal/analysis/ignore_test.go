package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// TestIgnoreEdgeCases pins the //texlint:ignore placement semantics on a
// dedicated fixture: comma-separated check lists, doc-group directives
// covering whole declarations (func and var block), trailing directives
// covering one line, and the directive check rejecting unknown check and
// directive names (including the retired untrusted and guards).
func TestIgnoreEdgeCases(t *testing.T) {
	pkg, err := fixtureLoad("testdata/src/ignoreedge")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAll([]*Package{pkg}, []*Analyzer{NewClockDomain(), NewErrCheck()})

	byCheck := map[string][]Diagnostic{}
	for _, d := range diags {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}

	// The only dropped error sits inside docIgnored, whose comma list
	// names errcheck; it may not survive.
	if got := byCheck["errcheck"]; len(got) != 0 {
		t.Errorf("errcheck findings survived the comma-list ignore: %v", got)
	}
	// The only clockdomain survivor is notIgnored's time.Now: docIgnored
	// is suppressed by its doc group and trailingIgnored by its trailing
	// directive (the var block is outside any function, so only the
	// suppression-index probes below reach it).
	clock := byCheck["clockdomain"]
	if len(clock) != 1 || !strings.Contains(clock[0].Message, "time.Now in simulated-clock code") ||
		clock[0].Pos.Line != pkg.Fset.Position(nowPosUnder(t, pkg, "notIgnored")).Line {
		t.Errorf("want exactly one surviving clockdomain finding (notIgnored's time.Now), got %v", clock)
	}
	// The bogus check name and the two retired directives are themselves
	// findings (RunAll sorts by line: the ignore comes first).
	dir := byCheck["directive"]
	if len(dir) != 3 || !strings.Contains(dir[0].Message, `unknown check "nosuchcheck"`) ||
		!strings.Contains(dir[1].Message, `unknown texlint directive "untrusted"`) ||
		!strings.Contains(dir[2].Message, `unknown texlint directive "guards"`) {
		t.Errorf(`want three directive findings, unknown check "nosuchcheck" and unknown directives "untrusted" and "guards", got %v`, dir)
	}
	if extra := len(diags) - len(clock) - len(dir); extra != 0 {
		t.Errorf("unexpected findings from other checks: %v", diags)
	}

	// Placement semantics, probed directly through the suppression index.
	prog := BuildProgram([]*Package{pkg})
	docNow := nowPosUnder(t, pkg, "docIgnored")
	for _, tc := range []struct {
		check string
		want  bool
	}{
		{"clockdomain", true}, // named in the comma list
		{"errcheck", true},    // named in the comma list
		{"aliasret", false},   // not named: the list scopes the ignore
	} {
		if got := prog.Suppressed(tc.check, docNow); got != tc.want {
			t.Errorf("doc-group ignore: Suppressed(%q) = %v, want %v", tc.check, got, tc.want)
		}
	}
	if !prog.Suppressed("clockdomain", nowPosUnder(t, pkg, "trailingIgnored")) {
		t.Error("trailing ignore must suppress its own line")
	}
	if prog.Suppressed("clockdomain", nowPosUnder(t, pkg, "notIgnored")) {
		t.Error("notIgnored has no directive; nothing may be suppressed there")
	}
	// blockStamp sits two lines below the directive comment: only the
	// GenDecl-range rule (not line+1 adjacency) can cover it.
	if !prog.Suppressed("clockdomain", nowPosUnder(t, pkg, "blockStamp")) {
		t.Error("var-block doc ignore must cover the whole GenDecl")
	}
}

// nowPosUnder returns the position of the first time.Now() call inside the
// top-level declaration that declares name (a func or a var in a block).
func nowPosUnder(t *testing.T, pkg *Package, name string) token.Pos {
	t.Helper()
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if !declares(decl, name) {
				continue
			}
			var pos token.Pos
			ast.Inspect(decl, func(n ast.Node) bool {
				if pos.IsValid() {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
						pos = call.Pos()
						return false
					}
				}
				return true
			})
			if pos.IsValid() {
				return pos
			}
		}
	}
	t.Fatalf("no time.Now call under declaration %q", name)
	return token.NoPos
}

func declares(decl ast.Decl, name string) bool {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Name.Name == name
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, n := range vs.Names {
					if n.Name == name {
						return true
					}
				}
			}
		}
	}
	return false
}
