package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fixture runs one registered check, configured exactly as DefaultAnalyzers
// ships it, against testdata/src/<name>: a file of violations annotated
// with `// want "regexp"` comments and a clean file (including a
// //texlint:ignore use) that must produce no diagnostics.
func fixture(t *testing.T, name string) {
	t.Helper()
	for _, a := range DefaultAnalyzers() {
		if a.Name != name {
			continue
		}
		for _, err := range CheckFixture(a, name) {
			t.Error(err)
		}
		return
	}
	t.Fatalf("no registered check named %q", name)
}

func TestErrCheckFixture(t *testing.T) { fixture(t, "errcheck") }

// TestEveryCheckHasFixture fails when a registered check ships no fixture
// package: a check without one has no proof it still catches its true
// positives. (The per-check tests above keep their names because the
// suite's floor list pins them; a new check adds its line there.)
func TestEveryCheckHasFixture(t *testing.T) {
	for _, a := range DefaultAnalyzers() {
		if _, err := os.Stat(filepath.Join("testdata", "src", a.Name)); err != nil {
			t.Errorf("check %q has no fixture package: %v", a.Name, err)
		}
	}
}

// TestDefaultAnalyzersScope pins the suite: errcheck is the one check.
// The others it once held are kept by tests or by the type system
// (DESIGN.md, "Correctness invariants & texlint"); a new check must say in
// its PR which mutants no test can kill.
func TestDefaultAnalyzersScope(t *testing.T) {
	var names []string
	for _, a := range DefaultAnalyzers() {
		names = append(names, a.Name)
	}
	if want := []string{"errcheck"}; !slices.Equal(names, want) {
		t.Fatalf("analyzers = %v, want %v", names, want)
	}
}
