// Command benchmark is the repository benchmark: four workloads that drive
// the system from its outermost interfaces (the REST socket, the library
// API), check every answer, and report end-to-end metrics plus, with
// -trace 1, per-layer metrics measured from outside each layer. See
// README.md for every metric and workload.
//
//	go run . -seed 1                    # every workload, end-to-end numbers
//	go run . -seed 1 -trace 1           # plus the per-layer numbers
//	go run . -workload lib_image_search -seed 7 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	seed      int64
	seconds   int
	trace     bool
	traceOut  string
	selfcheck bool
}

func main() {
	var o options
	workload := flag.String("workload", "", "run one workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 40, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced single-caller pass and prints the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the sim pass twice and fail unless the device-clock numbers are bit-equal")
	flag.Parse()
	o.trace = *trace == 1
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-trace-out file] [-selfcheck]")
		os.Exit(2)
	}
	run := workloads
	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		run = []spec{s}
	}

	printHeader(o)
	failed := false
	for _, s := range run {
		res, err := runWorkload(s, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Print(res.format(o))
		failed = failed || len(res.problems) > 0
	}
	if failed {
		os.Exit(1)
	}
}

// printHeader records the environment the numbers were taken in.
func printHeader(o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	noasm := os.Getenv("TEXID_NOASM")
	if noasm == "" {
		noasm = "unset"
	}
	fmt.Printf("# texid benchmark: nproc=%d GOMAXPROCS=%d %s TEXID_NOASM=%s seed=%d seconds=%d trace=%t commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), noasm, o.seed, o.seconds, o.trace, commit)
}

// result is everything one workload run measured.
type result struct {
	spec      spec
	values    map[string]float64 // by metric name
	samples   map[string]int     // sample count behind a timing
	notes     []string           // printed under the table: sample details the metrics condense
	attempted int
	failed    int
	problems  []string // what Verify found; empty means the outputs are correct
}

// format renders the human-readable table, then the one-line JSON result the
// benchmark driver reads: end-to-end metrics, or per-layer ones with -trace 1.
func (r *result) format(o options) string {
	w := &strings.Builder{}
	fmt.Fprintf(w, "\n## %s\n", r.spec.name)
	row := func(d metricDef) {
		n := ""
		if c, ok := r.samples[d.name]; ok {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(w, "%-28s %16.6g %-12s%s\n", d.name, r.values[d.name], d.unit, n)
	}
	for _, d := range endToEnd {
		row(d)
	}
	shown := perLayer[:alwaysMeasured]
	if o.trace {
		shown = perLayer
	}
	for _, d := range shown {
		row(d)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# WRONG: %s\n", p)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		line.Metrics[d.name] = value{r.values[d.name], d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encoding the result line: %v", err)) // only finite floats and strings
	}
	fmt.Fprintln(w, string(b))
	return w.String()
}

// tracedBudget caps the traced pass.
const tracedBudget = 15 * time.Second

// runWorkload is the Run half: set-up, sim pass, timed phase and, with
// -trace 1, the traced pass — the same phases on every commit. verify is
// the other half.
func runWorkload(s spec, o options) (*result, error) {
	res := &result{spec: s, values: make(map[string]float64), samples: make(map[string]int)}
	in := s.generate(o.seed)

	// Set-up: build, enroll, Flush, warm-up requests, forced GC.
	var t target
	var setupS []float64
	var all tally
	for k := 0; k < setupsPerRun; k++ {
		if t != nil {
			t.close()
			t = nil
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		var err error
		var warm tally
		if t, warm, err = setup(s, in); err != nil {
			return nil, err
		}
		runtime.GC()
		setupS = append(setupS, time.Since(t0).Seconds())
		all.add(warm)
		if k == 0 {
			// Live heap the first set-up added: the index and everything
			// it retains, without the benchmark's own inputs.
			runtime.ReadMemStats(&after)
			res.values["index_heap_mb"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		}
	}
	defer t.close()
	// The fastest, not the median: on the reference host a build is either
	// normal or several seconds slower (fresh or scavenged pages cost about
	// 12 µs each to touch), at random and only ever slower, and two slow
	// builds of three would make the median a coin flip.
	res.values["setup_s"] = sortedCopy(setupS)[0]
	res.notes = append(res.notes, fmt.Sprintf("set-ups took %.3g s", setupS))
	res.samples["setup_s"] = len(setupS)

	sim := simPass(t, in)
	oracle, err := t.oracle(0)
	if err != nil {
		return nil, fmt.Errorf("oracle search: %w", err)
	}
	if o.selfcheck {
		// On a rebuilt fixture: a second pass over the same one starts from
		// a later device clock and differs in the last bits.
		again, _, err := setup(s, in)
		if err != nil {
			return nil, fmt.Errorf("selfcheck set-up: %w", err)
		}
		res.problems = append(res.problems, compareSim(sim, simPass(again, in))...)
		again.close()
	}

	timed := runTimed(t, s, in, time.Duration(o.seconds)*time.Second)

	all.add(sim.tally)
	all.add(timed.tally)
	res.attempted = all.attempted + timed.writes.attempted
	res.failed = all.failed + timed.writes.failed

	v := res.values
	lat := sortedCopy(timed.searchMS)
	v["search_p50_ms"] = percentile(lat, 50)
	v["search_p90_ms"] = percentile(lat, 90)
	res.samples["search_p50_ms"], res.samples["search_p90_ms"] = len(lat), len(lat)
	if p, ok := highestPercentile(len(lat)); ok {
		res.notes = append(res.notes, fmt.Sprintf("search latency: n=%d p%g=%.4g ms is the highest percentile with ten samples beyond it", len(lat), p, percentile(lat, p)))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("search latency: n=%d, fewer than ten samples beyond p75", len(lat)))
	}
	v["search_qps"] = float64(timed.answered) / timed.elapsed.Seconds()
	res.samples["search_qps"] = timed.answered
	if all.answered > 0 {
		v["top1_correct_share"] = float64(all.correct) / float64(all.answered)
	}
	v["failed_share"] = float64(res.failed) / float64(res.attempted)
	v["sim_search_ms"] = mean(sim.simUS) / 1e3
	res.samples["sim_search_ms"] = len(sim.simUS)
	if m := mean(sim.simUS); m > 0 {
		v["sim_images_per_s"] = float64(s.refs) / (m * 1e-6 / float64(in.perRequest))
	}
	if len(timed.enrollMS) > 0 {
		v["enroll_p50_ms"] = median(timed.enrollMS)
		res.samples["enroll_p50_ms"] = len(timed.enrollMS)
	}

	if o.trace {
		tr := &tracer{}
		layers, err := t.layers(tr, tracedBudget)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for name, val := range layers {
			v[name] = val
		}
		simMetrics(sim, len(t.engines()), v)
		timedMetrics(t, s, timed, v)
		if s.churn {
			v["engine.update_wait_ms"] = v["enroll_p50_ms"] - v["cluster.update_ms"]
		}
		if untraced := median(sim.wallMS); untraced > 0 {
			v["trace.overhead_share"] = median(rootDurationsMS(tr))/untraced - 1
		}
		if o.traceOut != "" {
			if err := writeTrace(o.traceOut+"."+s.name+".json", traceFile{Workload: s.name, Seed: o.seed, Spans: tr.spans, Counts: layers}); err != nil {
				return nil, fmt.Errorf("writing the trace: %w", err)
			}
		}
	}

	res.problems = append(res.problems, verify(s, all, res.failed, sim.first, oracle)...)
	return res, nil
}

// rootDurationsMS is the duration of every request's root span.
func rootDurationsMS(tr *tracer) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Parent == 0 {
			out = append(out, s.DurUS/1e3)
		}
	}
	return out
}

// verify is the Verify half: nothing gets faster by getting wrong. Every
// reply was already scored against ground truth into all; here the totals
// are judged and the outermost interface's reply to pooled request 0 is
// compared with the search layer called directly.
func verify(s spec, all tally, failed int, got reply, oracle []answer) []string {
	var problems []string
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d requests failed; the workloads are chosen so that none does", failed))
	}
	// From descriptors the truth always wins; from pixels a hard recapture
	// may legitimately miss, so the share is reported but not required.
	if !s.lib && all.correct != all.answered {
		problems = append(problems, fmt.Sprintf("top-1 correct on %d of %d answered queries, want all", all.correct, all.answered))
	}
	if !got.ok || len(got.answers) != len(oracle) {
		return append(problems, "no reply to compare with the oracle")
	}
	for k, want := range oracle {
		g := got.answers[k]
		if g.bestID != want.bestID || g.score != want.score || g.compared != want.compared || g.accepted != want.accepted {
			problems = append(problems, fmt.Sprintf("query %d: interface says id=%d score=%d compared=%d accepted=%t, direct search says id=%d score=%d compared=%d accepted=%t",
				k, g.bestID, g.score, g.compared, g.accepted, want.bestID, want.score, want.compared, want.accepted))
		}
	}
	return problems
}

// compareSim is -selfcheck: the sim passes of two builds of the same fixture
// must agree bit for bit on everything the device clock produces.
func compareSim(a, b simResult) []string {
	var problems []string
	if fmt.Sprint(a.simUS) != fmt.Sprint(b.simUS) {
		problems = append(problems, "selfcheck: device-clock latencies differ between two sim passes")
	}
	if a.correct != b.correct || a.answered != b.answered {
		problems = append(problems, "selfcheck: top-1 counts differ between two sim passes")
	}
	ma, mb := map[string]float64{}, map[string]float64{}
	simMetrics(a, 1, ma)
	simMetrics(b, 1, mb)
	for name, va := range ma {
		if name != "gpusim.peak_alloc_mb" && va != mb[name] {
			problems = append(problems, fmt.Sprintf("selfcheck: %s is %v then %v", name, va, mb[name]))
		}
	}
	return problems
}
