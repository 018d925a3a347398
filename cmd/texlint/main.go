// Command texlint runs texid's one static check, errcheck: no error result
// is silently dropped in non-test code.
//
//	go run ./cmd/texlint ./...
//	go run ./cmd/texlint -json ./... | jq .
//
// It is stdlib-only and works from a clean checkout with no network
// access: packages are discovered with go/build and type-checked from
// source. Diagnostics print as file:line:col: [check] message (or as a
// JSON array with -json) and any finding makes the exit status non-zero,
// so scripts/check.sh can use it as a tier-2 gate alongside go vet and
// the race tests. Besides errcheck it reports texlint comment hygiene
// under "directive": bare ignores (no reason), unknown check names, and
// any directive other than ignore.
//
// Every other project invariant is held by a test or by the type system,
// not by a check here; see DESIGN.md, "Correctness invariants & texlint".
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

	"texid/internal/analysis"
)

func main() {
	var (
		verbose = flag.Bool("v", false, "list packages as they are analyzed")
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: texlint [-v] [-json] [packages]\n")
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

	diags := analysis.RunAll(pkgs, analysis.DefaultAnalyzers())

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
