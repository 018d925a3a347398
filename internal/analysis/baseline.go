package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Findings baseline: instead of scattering //texlint:ignore comments for
// long-lived, reviewed exceptions, they can be recorded centrally in
// texlint.baseline. Each entry is one line:
//
//	path/file.go: [check] message
//
// Paths are module-root-relative with forward slashes, and entries carry
// no line numbers, so ordinary edits elsewhere in a file do not invalidate
// them. A diagnostic matching an entry is filtered; an entry matching no
// diagnostic (for a check that actually ran) is reported as stale so the
// file can only shrink, never silently rot.

// Baseline is a parsed findings-baseline file.
type Baseline struct {
	entries map[string][]*baselineEntry // key -> duplicates allowed
}

type baselineEntry struct {
	key   string
	check string
	line  int
	used  bool
}

// baselineKey renders the stable identity of a diagnostic.
func baselineKey(d Diagnostic, root string) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s: [%s] %s", filepath.ToSlash(file), d.Check, d.Message)
}

// LoadBaseline reads a baseline file. Blank lines and lines starting with
// "#" are comments. A malformed entry is an error (the file is reviewed
// code, not freeform text).
func LoadBaseline(path string) (*Baseline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := &Baseline{entries: make(map[string][]*baselineEntry)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		check, ok := baselineEntryCheck(line)
		if !ok {
			return nil, fmt.Errorf("%s:%d: malformed baseline entry (want \"path/file.go: [check] message\"): %q", path, lineNo, line)
		}
		e := &baselineEntry{key: line, check: check, line: lineNo}
		b.entries[line] = append(b.entries[line], e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// baselineEntryCheck extracts the [check] name from an entry line.
func baselineEntryCheck(line string) (string, bool) {
	i := strings.Index(line, ": [")
	if i < 0 {
		return "", false
	}
	rest := line[i+3:]
	j := strings.Index(rest, "] ")
	if j <= 0 {
		return "", false
	}
	return rest[:j], true
}

// Filter removes diagnostics matching a baseline entry, consuming one
// entry per diagnostic, and returns the rest.
func (b *Baseline) Filter(diags []Diagnostic, root string) []Diagnostic {
	if b == nil {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		matched := false
		for _, e := range b.entries[baselineKey(d, root)] {
			if !e.used {
				e.used = true
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, d)
		}
	}
	return out
}

// Stale returns the unmatched entries for checks that were enabled this
// run, sorted by file line. Entries for disabled checks are left alone so
// `-checks errcheck` does not report the hotalloc baseline as stale.
func (b *Baseline) Stale(enabled map[string]bool) []string {
	if b == nil {
		return nil
	}
	var stale []*baselineEntry
	for _, es := range b.entries {
		for _, e := range es {
			if !e.used && enabled[e.check] {
				stale = append(stale, e)
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].line < stale[j].line })
	out := make([]string, len(stale))
	for i, e := range stale {
		out[i] = e.key
	}
	return out
}

// WriteBaseline writes the diagnostics as a fresh baseline file, sorted
// and deduplicated-with-multiplicity (identical findings on different
// lines stay as repeated entries).
func WriteBaseline(path string, diags []Diagnostic, root string) error {
	keys := make([]string, 0, len(diags))
	for _, d := range diags {
		keys = append(keys, baselineKey(d, root))
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("# texlint findings baseline. Each line is one reviewed, justified finding:\n")
	sb.WriteString("#   path/file.go: [check] message\n")
	sb.WriteString("# Entries carry no line numbers so unrelated edits do not invalidate them.\n")
	sb.WriteString("# Regenerate with: go run ./cmd/texlint -write-baseline texlint.baseline ./...\n")
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
