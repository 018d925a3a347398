package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
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

func TestErrCheckFixture(t *testing.T)    { fixture(t, "errcheck") }
func TestFP16Fixture(t *testing.T)        { fixture(t, "fp16") }
func TestClockDomainFixture(t *testing.T) { fixture(t, "clockdomain") }
func TestAliasRetFixture(t *testing.T)    { fixture(t, "aliasret") }
func TestPoolLifeFixture(t *testing.T)    { fixture(t, "poollife") }
func TestGoLeakFixture(t *testing.T)      { fixture(t, "goleak") }

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

// TestDefaultAnalyzersScope pins the suite and its production scoping:
// clockdomain roots itself at the simulator packages and not at e.g. cmd/
// tools, while fp16 skips internal/half itself.
func TestDefaultAnalyzersScope(t *testing.T) {
	var names []string
	for _, a := range DefaultAnalyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	if want := []string{"aliasret", "clockdomain", "errcheck", "fp16", "goleak", "poollife"}; !slices.Equal(names, want) {
		t.Fatalf("analyzers = %v, want the 6 checks %v", names, want)
	}
	if !inSimulator("texid/internal/engine") || !inSimulator("texid/internal/gpusim") {
		t.Error("clockdomain root scope must cover internal/engine and internal/gpusim")
	}
	if inSimulator("texid/cmd/texgen") {
		t.Error("clockdomain root scope must not cover cmd/texgen")
	}
	if fp16Scope("texid/internal/half") {
		t.Error("fp16 must not apply to internal/half")
	}
	if !fp16Scope("texid/internal/blas") {
		t.Error("fp16 must apply to internal/blas")
	}
}
