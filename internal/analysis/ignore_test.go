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
// covering one line, and the directive check rejecting unknown names.
func TestIgnoreEdgeCases(t *testing.T) {
	pkg, err := fixtureLoad("testdata/src/ignoreedge")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAll([]*Package{pkg}, []*Analyzer{NewHotAlloc(), NewErrCheck()})

	byCheck := map[string][]Diagnostic{}
	for _, d := range diags {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}

	// The only dropped error sits inside docIgnored, whose comma list
	// names errcheck; it may not survive.
	if got := byCheck["errcheck"]; len(got) != 0 {
		t.Errorf("errcheck findings survived the comma-list ignore: %v", got)
	}
	// The only hotalloc survivor is notIgnored's make: docIgnored is
	// suppressed by its doc group, trailingIgnored by its trailing
	// directive, and the var block by its GenDecl doc directive.
	hot := byCheck["hotalloc"]
	if len(hot) != 1 || !strings.Contains(hot[0].Message, "make allocates on the hot path") {
		t.Errorf("want exactly one surviving hotalloc finding (notIgnored's make), got %v", hot)
	}
	// The bogus check name in the last directive is itself a finding.
	dir := byCheck["directive"]
	if len(dir) != 1 || !strings.Contains(dir[0].Message, `unknown check "nosuchcheck"`) {
		t.Errorf(`want exactly one directive finding about unknown check "nosuchcheck", got %v`, dir)
	}
	if extra := len(diags) - len(hot) - len(dir); extra != 0 {
		t.Errorf("unexpected findings from other checks: %v", diags)
	}

	// Placement semantics, probed directly through the suppression index.
	prog := BuildProgram([]*Package{pkg})
	docMake := makePosUnder(t, pkg, "docIgnored")
	for _, tc := range []struct {
		check string
		want  bool
	}{
		{"hotalloc", true},  // named in the comma list
		{"errcheck", true},  // named in the comma list
		{"aliasret", false}, // not named: the list scopes the ignore
	} {
		if got := prog.Suppressed(tc.check, docMake); got != tc.want {
			t.Errorf("doc-group ignore: Suppressed(%q) = %v, want %v", tc.check, got, tc.want)
		}
	}
	if !prog.Suppressed("hotalloc", makePosUnder(t, pkg, "trailingIgnored")) {
		t.Error("trailing ignore must suppress its own line")
	}
	if prog.Suppressed("hotalloc", makePosUnder(t, pkg, "notIgnored")) {
		t.Error("notIgnored has no directive; nothing may be suppressed there")
	}
	// blockTab sits two lines below the directive comment: only the
	// GenDecl-range rule (not line+1 adjacency) can cover it.
	if !prog.Suppressed("hotalloc", makePosUnder(t, pkg, "blockTab")) {
		t.Error("var-block doc ignore must cover the whole GenDecl")
	}
}

// makePosUnder returns the position of the first make(...) call inside the
// top-level declaration that declares name (a func or a var in a block).
func makePosUnder(t *testing.T, pkg *Package, name string) token.Pos {
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
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
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
	t.Fatalf("no make call under declaration %q", name)
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
