// Command texlint runs texid's one static check, errcheck: no error result
// is silently dropped in non-test code.
//
//	go run ./cmd/texlint ./...
//
// It is stdlib-only and works from a clean checkout with no network
// access: packages are discovered with go/build and type-checked from
// source. Findings print as file:line:col: [errcheck] message. The exit
// status is 0 on a clean tree, 1 on any finding and 2 on a usage or load
// error, so scripts/check.sh can use it as a tier-2 gate alongside go vet
// and the race tests. Type errors are reported on stderr and do not change
// the exit status.
//
// A deliberate drop is written `_ = f()` with a comment saying why; there
// is no suppression comment. Every other project invariant is held by a
// test or by the type system, not by a check here; see DESIGN.md,
// "Correctness invariants & texlint".
package main

import (
	"flag"
	"fmt"
	"os"

	"texid/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: texlint [packages]\n")
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
		for _, e := range pkg.TypeErrors {
			// Type errors degrade the check; surface them but keep
			// checking what still type-checked.
			fmt.Fprintf(os.Stderr, "texlint: %s: type error: %v\n", pkg.Path, e)
		}
	}

	diags := analysis.RunAll(pkgs)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "texlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "texlint: %v\n", err)
	os.Exit(2)
}
