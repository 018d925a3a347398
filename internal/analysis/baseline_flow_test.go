package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flowFixtureDiags runs the widened wiretaint analyzer (plus directive
// hygiene, which RunAll always includes) over the wiretaint fixture and
// returns the diagnostics — a stable, known-nonempty finding set for
// exercising the baseline machinery against the new value-flow checks.
func flowFixtureDiags(t *testing.T) []Diagnostic {
	t.Helper()
	pkg, err := fixtureLoad(filepath.Join("testdata", "src", "wiretaint"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAll([]*Package{pkg}, []*Analyzer{NewWireTaint()})
	if len(diags) == 0 {
		t.Fatal("wiretaint fixture produced no diagnostics")
	}
	return diags
}

// TestBaselineRoundTripWireTaint pins the -write-baseline → -baseline
// round trip for the value-flow checks: a freshly written baseline filters
// every finding it was written from and leaves nothing stale.
func TestBaselineRoundTripWireTaint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixture + stdlib; skipped in -short mode")
	}
	diags := flowFixtureDiags(t)
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "texlint.baseline")
	if err := WriteBaseline(path, diags, root); err != nil {
		t.Fatal(err)
	}
	bl, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if left := bl.Filter(diags, root); len(left) != 0 {
		t.Fatalf("round-tripped baseline left %d findings unfiltered: %v", len(left), left)
	}
	enabled := map[string]bool{"wiretaint": true, "directive": true}
	if stale := bl.Stale(enabled); len(stale) != 0 {
		t.Fatalf("round-tripped baseline has stale entries: %v", stale)
	}
}

// TestBaselineStaleEntryWireTaint pins the shrink-only contract: an entry
// for a wiretaint finding that is no longer produced must surface as stale
// — but only when the wiretaint check actually ran.
func TestBaselineStaleEntryWireTaint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixture + stdlib; skipped in -short mode")
	}
	diags := flowFixtureDiags(t)
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "texlint.baseline")
	if err := WriteBaseline(path, diags, root); err != nil {
		t.Fatal(err)
	}
	fixed := "internal/analysis/testdata/src/wiretaint/gone.go: [wiretaint] untrusted length flows into make without a bound check; compare against a limit or use internal/limits"
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fixed + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	bl, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	bl.Filter(diags, root)
	stale := bl.Stale(map[string]bool{"wiretaint": true, "directive": true})
	if len(stale) != 1 || stale[0] != fixed {
		t.Fatalf("stale = %v, want exactly the fabricated entry", stale)
	}
	// A run without wiretaint must not report the entry: staleness is
	// only meaningful for checks that produced findings this run.
	bl2, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	bl2.Filter(diags, root)
	if stale := bl2.Stale(map[string]bool{"directive": true}); len(stale) != 0 {
		t.Fatalf("wiretaint disabled but its entry reported stale: %v", stale)
	}
}

// TestUntrustedDirectiveHygieneFindings pins that a //texlint:untrusted on
// a non-source declaration comes back as a directive finding (and so can be
// baselined or fixed like any other diagnostic).
func TestUntrustedDirectiveHygieneFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixture + stdlib; skipped in -short mode")
	}
	diags := flowFixtureDiags(t)
	var onVar, onNoInputs bool
	for _, d := range diags {
		if d.Check != "directive" {
			continue
		}
		if strings.Contains(d.Message, "texlint:untrusted must be in the doc comment of a function declaration") {
			onVar = true
		}
		if strings.Contains(d.Message, "texlint:untrusted marks inputs as hostile, but this function has no receiver or parameters") {
			onNoInputs = true
		}
	}
	if !onVar {
		t.Error("no directive finding for //texlint:untrusted on a var declaration")
	}
	if !onNoInputs {
		t.Error("no directive finding for //texlint:untrusted on a zero-input function")
	}
}
