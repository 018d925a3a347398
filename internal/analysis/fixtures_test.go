package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// A fixture package under testdata/src/<name> holds files with
// `// want "regexp"` comments marking the lines where errcheck must
// report, plus clean files with no comments that must produce zero
// findings.

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

// moduleLoader returns a process-wide loader for the enclosing module, so
// the (source-imported) stdlib is type-checked once across all tests.
func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loader
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// fixture runs errcheck over testdata/src/<name> and reports, as test
// errors, every finding without a matching `// want` on its line and every
// `// want` that no finding matched.
func fixture(t *testing.T, name string) {
	t.Helper()
	pkg, err := moduleLoader(t).LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		re   *regexp.Regexp
		used bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					key := posKey(pkg.Fset.Position(c.Pos()))
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", key, m[1], err)
						continue
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	for _, d := range RunAll([]*Package{pkg}) {
		key := posKey(d.Pos)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("missing finding at %s: want match for %q", key, w.re)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

func TestErrCheckFixture(t *testing.T) { fixture(t, "errcheck") }

// TestIgnoreEdgeCases pins that texlint has no suppression comment: the
// ignoreedge fixture's texlint:ignore comments, one trailing and one in a
// doc group, are ordinary comments, and the drops beneath them are still
// findings. A deliberate drop is `_ = f()` with a comment saying why.
func TestIgnoreEdgeCases(t *testing.T) { fixture(t, "ignoreedge") }

// TestModuleHasNoDroppedErrors runs the check over the module from its
// root, as `go run ./cmd/texlint ./...` does (the nested benchmark/ module
// included), so tier-1 fails on a dropped error, not only scripts/check.sh.
// A type error fails it too: errcheck is blind where types are missing.
func TestModuleHasNoDroppedErrors(t *testing.T) {
	l := moduleLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	for _, d := range RunAll(pkgs) {
		t.Error(d)
	}
}
