package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sync"
)

// Fixture testing: a fixture package under testdata/src/<name> contains
// files with `// want "regexp"` comments marking the lines where a check
// must report, plus clean files with no comments that must produce zero
// diagnostics. CheckFixture loads the package, runs the analyzer exactly
// as DefaultAnalyzers configures it, and returns one error per mismatch in
// either direction.

var (
	fixtureOnce   sync.Once
	fixtureLoader *Loader
	fixtureErr    error
)

// fixtureLoad returns a process-wide loader so the (source-imported)
// stdlib is only type-checked once across all fixture tests.
func fixtureLoad(dir string) (*Package, error) {
	fixtureOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureLoader, fixtureErr = NewLoader(root)
	})
	if fixtureErr != nil {
		return nil, fixtureErr
	}
	return fixtureLoader.LoadDir(dir)
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// CheckFixture runs one analyzer over testdata/src/<fixture> and
// verifies its diagnostics against the `// want` expectations. Directive
// hygiene ("directive" findings from RunAll) is included: fixtures assert
// it with // want comments like any other check.
func CheckFixture(a *Analyzer, fixture string) []error {
	pkg, err := fixtureLoad(filepath.Join("testdata", "src", fixture))
	if err != nil {
		return []error{err}
	}
	diags := RunAll([]*Package{pkg}, []*Analyzer{a})

	type want struct {
		re   *regexp.Regexp
		used bool
		pos  string
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	var errs []error
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						errs = append(errs, fmt.Errorf("%s: bad want regexp %q: %v", tf.Name(), m[1], err))
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := posKey(pos)
					wants[key] = append(wants[key], &want{re: re, pos: key})
				}
			}
		}
	}
	for _, d := range diags {
		key := posKey(d.Pos)
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			errs = append(errs, fmt.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Check, d.Message))
		}
	}
	for _, ws := range wants {
		for _, w := range ws {
			if !w.used {
				errs = append(errs, fmt.Errorf("missing diagnostic at %s: want match for %q", w.pos, w.re))
			}
		}
	}
	return errs
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
