// Command texbench regenerates the paper's evaluation tables and figures
// against the simulated devices and the synthetic dataset.
//
// Usage:
//
//	texbench                          # run everything
//	texbench -experiment table1      # one experiment
//	texbench -experiment table2 -refs 24 -queries 24 -feature-scale 2
//	texbench -markdown > results.md  # EXPERIMENTS.md-style output
//	texbench -suite -portable -baseline BENCH_BASELINE.json  # sim and count rows, gated (CI)
//	texbench -suite -op '^gemm' -count 5                     # iterate on one op
//	scripts/bench.sh HEAD '^gemm'                            # wall rows, paired against HEAD
//
// With -suite it runs the measurement suite instead: host kernels on the
// wall clock, the serving levels and the sim-clock soak on the simulated
// clock, and the allocation probes. Wall-clock serving under load is
// measured by the benchmark/ module, not here.
//
// Timing experiments run phantom searches (dimensions only, no data)
// through the serving engine at the paper's full dimensions; accuracy
// experiments (Tables 2 and 7) search through the same engine on a
// scaled-down synthetic dataset — raise -refs/-queries/-feature-scale to
// approach paper scale at the cost of CPU time. Each of those sizes, and
// -image-size, -system-refs and -min-matches, must be at least 1, -jitter
// at least 0 and -difficulty in [0, 1] (exit 2). An -experiment list runs
// on one runner, as the default "all" does.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"

	"texid/internal/bench"
)

func main() {
	opts := bench.DefaultOptions()
	experiment := flag.String("experiment", "all",
		"experiment id: all, "+strings.Join(bench.Experiments, ", "))
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	suite := flag.Bool("suite", false,
		"run the measurement suite instead of the experiments: host kernels (wall clock, at GOMAXPROCS 1 and NumCPU), serving levels and the sim-clock soak (simulated clock), allocation probes (counts)")
	var so bench.SuiteOptions
	flag.BoolVar(&so.Portable, "portable", false,
		"with -suite: only sim- and count-clock ops, which gate on any machine: sim rows are bit-identical, count rows are lower on the portable kernels and gated one-sided (what CI gates)")
	flag.IntVar(&so.Count, "count", 3, "with -suite: timed runs per host-kernel op (best is reported)")
	opFilter := flag.String("op", "",
		"with -suite: only run ops whose name matches this regexp (fixtures for skipped ops are not built)")
	outPath := flag.String("out", "", "with -suite: write the rows to this JSON file (BENCH_BASELINE.json)")
	baselinePath := flag.String("baseline", "",
		"with -suite: gate against this baseline file; exit 2 before any op runs if it is missing or malformed, exit 1 on regression")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "dataset and jitter seed")
	flag.IntVar(&opts.Refs, "refs", opts.Refs, "reference images for accuracy experiments")
	flag.IntVar(&opts.Queries, "queries", opts.Queries, "query images for accuracy experiments")
	flag.IntVar(&opts.ImageSize, "image-size", opts.ImageSize, "synthetic texture side in pixels")
	flag.Float64Var(&opts.Difficulty, "difficulty", opts.Difficulty, "query perturbation strength in [0,1]")
	flag.IntVar(&opts.FeatureScale, "feature-scale", opts.FeatureScale,
		"divide paper feature budgets by this for functional experiments (1 = paper scale)")
	flag.IntVar(&opts.SystemRefs, "system-refs", opts.SystemRefs, "phantom references for the Sec. 8 experiment")
	flag.Float64Var(&opts.JitterCoV, "jitter", opts.JitterCoV, "cloud-VM jitter CoV for streaming experiments")
	flag.IntVar(&opts.MinMatches, "min-matches", opts.MinMatches, "identification acceptance threshold for accuracy experiments")
	flag.Parse()

	if *suite {
		if *opFilter != "" {
			var err error
			if so.Filter, err = regexp.Compile(*opFilter); err != nil {
				fmt.Fprintln(os.Stderr, "texbench: bad -op regexp:", err)
				os.Exit(2)
			}
		}
		runSuite(so, *outPath, *baselinePath)
		return
	}

	// No experiment can run with one of these below 1: it would be an empty
	// dataset or image, a division by the feature scale or the system's
	// reference count, or a threshold that accepts every best candidate.
	// Rejecting them here fails the run before any experiment starts.
	for _, f := range []struct {
		name string
		v    int
	}{
		{"refs", opts.Refs}, {"queries", opts.Queries}, {"image-size", opts.ImageSize},
		{"feature-scale", opts.FeatureScale}, {"system-refs", opts.SystemRefs}, {"min-matches", opts.MinMatches},
	} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "texbench: -%s %d must be at least 1\n", f.name, f.v)
			os.Exit(2)
		}
	}
	// A negative jitter CoV would run as none, and a difficulty outside
	// [0, 1] would be clamped, each without a word (NaN fails both too).
	if !(opts.JitterCoV >= 0 && opts.Difficulty >= 0 && opts.Difficulty <= 1) {
		fmt.Fprintf(os.Stderr, "texbench: -jitter %g must be at least 0 and -difficulty %g in [0, 1]\n", opts.JitterCoV, opts.Difficulty)
		os.Exit(2)
	}

	var ids []string // none runs the whole registry
	if *experiment != "all" {
		ids = strings.Split(strings.ReplaceAll(*experiment, " ", ""), ",")
	}
	start := time.Now()
	tables, err := bench.Run(ids, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, tb := range tables {
		if *markdown {
			fmt.Print(tb.Markdown())
		} else {
			fmt.Println(tb.String())
		}
	}
	fmt.Fprintf(os.Stderr, "ran %d experiment(s) in %s\n", len(tables), time.Since(start).Round(time.Millisecond))
}

// runSuite runs the measurement suite, printing each row as its op
// finishes. The baseline is loaded first, so a missing or malformed file
// fails before any slow op runs; the rows are written before they are gated,
// so a re-baseline records what was measured even when an absolute limit or
// a result check (which need no baseline, and are always enforced) fails.
func runSuite(o bench.SuiteOptions, outPath, baselinePath string) {
	var baseline []bench.Row
	if baselinePath != "" {
		var err error
		if baseline, err = bench.Load(baselinePath); err != nil {
			fmt.Fprintf(os.Stderr, "texbench: bad baseline: %v\n  record one: UPDATE=1 scripts/bench.sh\n", err)
			os.Exit(2)
		}
	}

	start := time.Now()
	fmt.Printf("%-52s %-5s %5s %16s %-10s %s\n", "op", "clock", "procs", "value", "unit", "gate")
	o.Emit = func(r bench.Row) {
		procs, gate := "-", ""
		if r.GOMAXPROCS > 0 {
			procs = strconv.Itoa(r.GOMAXPROCS)
		}
		if r.Tolerance != nil {
			gate += fmt.Sprintf(" tolerance=%g", *r.Tolerance)
		}
		if r.Limit != nil {
			gate += fmt.Sprintf(" limit=%g", *r.Limit)
		}
		if r.Verified != nil {
			gate += fmt.Sprintf(" verified=%v", *r.Verified)
		}
		fmt.Printf("%-52s %-5s %5s %16.3f %-10s%s\n", r.Op, r.Clock, procs, r.Value, r.Unit, gate)
	}
	rows, err := bench.RunSuite(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "texbench:", err)
		os.Exit(2)
	}
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "texbench: -op filter matched no suite ops")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "suite: %d rows in %s\n", len(rows), time.Since(start).Round(time.Millisecond))

	if outPath != "" {
		if err := bench.WriteRows(outPath, rows); err != nil {
			fmt.Fprintln(os.Stderr, "texbench:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	if problems := bench.Compare(baseline, rows); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "REGRESSION:", p)
		}
		os.Exit(1)
	}
	if baselinePath != "" {
		fmt.Fprintf(os.Stderr, "no regressions vs %s\n", baselinePath)
	}
}
