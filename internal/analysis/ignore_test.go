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
// covering one line, and the directive check rejecting unknown check names
// and every directive but ignore (including the retired untrusted, guards,
// scratchalias, clockdomain and freelist).
func TestIgnoreEdgeCases(t *testing.T) {
	pkg, err := fixtureLoad("testdata/src/ignoreedge")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAll([]*Package{pkg}, []*Analyzer{NewErrCheck()})

	byCheck := map[string][]Diagnostic{}
	for _, d := range diags {
		byCheck[d.Check] = append(byCheck[d.Check], d)
	}

	// The only errcheck survivor is notIgnored's os.Remove: docIgnored is
	// suppressed by its doc group, trailingIgnored by its trailing
	// directive and blockStamp by its var block's doc group.
	drops := byCheck["errcheck"]
	if len(drops) != 1 || drops[0].Pos.Line != pkg.Fset.Position(removePosUnder(t, pkg, "notIgnored")).Line {
		t.Errorf("want exactly one surviving errcheck finding (notIgnored's os.Remove), got %v", drops)
	}
	// The bogus check name and the five retired directives are themselves
	// findings (RunAll sorts by line: the ignore comes first).
	dir := byCheck["directive"]
	wantDir := []string{`unknown check "nosuchcheck"`, `"untrusted"`, `"scratchalias"`, `"clockdomain"`, `"freelist"`, `"guards"`}
	if len(dir) != len(wantDir) {
		t.Fatalf("want %d directive findings, got %v", len(wantDir), dir)
	}
	for i, w := range wantDir {
		if !strings.Contains(dir[i].Message, w) {
			t.Errorf("directive finding %d = %q, want it to name %s", i, dir[i].Message, w)
		}
	}
	if extra := len(diags) - len(drops) - len(dir); extra != 0 {
		t.Errorf("unexpected findings from other checks: %v", diags)
	}

	// Placement semantics, probed directly through the suppression index.
	ig := buildIgnoreIndex(pkg.Fset, pkg.Files)
	suppressed := func(check, name string) bool {
		return ig.suppressed(Diagnostic{Pos: pkg.Fset.Position(removePosUnder(t, pkg, name)), Check: check})
	}
	if !suppressed("errcheck", "docIgnored") {
		t.Error("doc-group ignore must cover its declaration for a check in its comma list")
	}
	if suppressed("fp16", "docIgnored") {
		t.Error("doc-group ignore covered a check its list does not name")
	}
	if !suppressed("errcheck", "trailingIgnored") {
		t.Error("trailing ignore must suppress its own line")
	}
	if suppressed("errcheck", "notIgnored") {
		t.Error("notIgnored has no directive; nothing may be suppressed there")
	}
	// blockStamp's call sits lines below the directive comment: only the
	// GenDecl-range rule (not line+1 adjacency) can cover it.
	if !suppressed("errcheck", "blockStamp") {
		t.Error("var-block doc ignore must cover the whole GenDecl")
	}
}

// removePosUnder returns the position of the first os.Remove call inside
// the top-level declaration that declares name (a func or a var in a
// block).
func removePosUnder(t *testing.T, pkg *Package, name string) token.Pos {
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
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Remove" {
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
	t.Fatalf("no os.Remove call under declaration %q", name)
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
