// Command texlint runs texid's project-invariant static-analysis suite.
//
//	go run ./cmd/texlint ./...
//	go run ./cmd/texlint -checks aliasret,clockdomain ./internal/...
//	go run ./cmd/texlint -json ./... | jq .
//
// It is stdlib-only and works from a clean checkout with no network
// access: packages are discovered with go/build and type-checked from
// source. Diagnostics print as file:line:col: [check] message (or as a
// JSON array with -json) and any finding makes the exit status non-zero,
// so scripts/check.sh can use it as a tier-2 gate alongside go vet and
// the race tests.
//
// Checks (see internal/analysis for details):
//
//	errcheck     no silently dropped error returns
//	fp16         no raw binary16 conversions or bit-pattern arithmetic
//	             outside internal/half
//	clockdomain  nothing in or reachable from the simulator packages
//	             (internal/gpusim, engine, blas, knn, half, cache) or a
//	             //texlint:clockdomain function may read the wall clock
//	             or the global math/rand source
//	aliasret     results of //texlint:scratchalias APIs must not be
//	             retained across reuse of the same scratch
//	poollife     objects handed to sync.Pool.Put or a //texlint:freelist
//	             recycler are never used, returned, or recycled again
//	             afterwards
//	goleak       goroutines spawned from non-test code need a provable
//	             exit path: a close()d channel range, a done/context
//	             select arm, or a bounded body
//	directive    texlint comment hygiene: bare ignores (no reason),
//	             unknown check names, unknown or retired directives
//
// Lock contracts (acquisition order, the fields a mutex owns, nothing held
// across a blocking call) are held by tests that drive the interleaving
// under -race, not by a check here; see DESIGN.md, "Concurrency contracts".
//
// Suppress a finding with `//texlint:ignore <check> <reason>` on the
// offending line or in the enclosing declaration's doc comment; the
// reason is mandatory. There is no other suppression mechanism.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"texid/internal/analysis"
)

func main() {
	var (
		verbose    = flag.Bool("v", false, "list packages as they are analyzed")
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		jsonOut    = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: texlint [-v] [-checks list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}

	analyzers, err := selectAnalyzers(*checksFlag)
	if err != nil {
		fatal(err)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fatal(err)
	}
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "texlint: %s\n", pkg.Path)
		}
		for _, e := range pkg.TypeErrors {
			// Type errors degrade analysis quality; surface them but keep
			// linting what still type-checked.
			fmt.Fprintf(os.Stderr, "texlint: %s: type error: %v\n", pkg.Path, e)
		}
	}

	diags := analysis.RunAll(pkgs, analyzers)

	if *jsonOut {
		emitJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "texlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -checks flag against the default suite.
func selectAnalyzers(list string) ([]*analysis.Analyzer, error) {
	all := analysis.DefaultAnalyzers()
	if list == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	names := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	sort.Strings(names)
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (known: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks selected no checks")
	}
	return out, nil
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func emitJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "texlint: %v\n", err)
	os.Exit(2)
}
