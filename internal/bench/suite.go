package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
)

// This file is the measurement harness: one op table, one row type, one
// baseline file (BENCH_BASELINE.json), one loader and one gate. Everything
// the repository measures about itself — host kernels, serving levels, the
// sim-clock soak, allocation probes — is an Op that emits
// flat Rows, and every gate is a property of a row.

// A row's clock says what its value is made of, and with that how far a
// committed baseline travels.
const (
	// ClockSim is gpusim device time: bit-reproducible on any machine and
	// at any GOMAXPROCS, so sim rows gate everywhere, CI included.
	ClockSim = "sim"
	// ClockWall is host time: machine-dependent and measured once per
	// GOMAXPROCS. It is never committed: scripts/bench.sh reads its
	// tolerance against the parent commit measured beside it, and its
	// limit and result check hold on every run.
	ClockWall = "wall"
	// ClockCount is an event count (allocations per op): a code-shape
	// property, identical wherever the same kernels run and lower on the
	// portable (TEXID_NOASM) kernels, so it is gated one-sided.
	ClockCount = "count"
)

// The two values of Row.Better.
const (
	lower  = "lower"
	higher = "higher"
)

// Row is one measurement. Four optional fields carry the four gate rules
// (see Compare); a row with none of them is informational.
type Row struct {
	// Op is "<op name>/<metric>".
	Op    string `json:"op"`
	Clock string `json:"clock"`
	// GOMAXPROCS is set on wall rows only; sim and count rows are
	// GOMAXPROCS-independent by contract and recorded once.
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	// Better is "lower" or "higher"; gated rows must say which.
	Better string `json:"better,omitempty"`
	// Tolerance gates the row against its baseline row: a fraction of the
	// baseline value on sim and wall rows; absolute on count rows, whose
	// baseline may be zero and where 0.5 is rounding slack (zero drift).
	Tolerance *float64 `json:"tolerance,omitempty"`
	// Limit gates the row absolutely: a ceiling when lower is better, a
	// floor when higher is.
	Limit *float64 `json:"limit,omitempty"`
	// Verified is the op's result check, stamped on its first row.
	Verified *bool `json:"verified,omitempty"`
}

func newRow(metric string, value float64, unit, better string) Row {
	return Row{Op: metric, Value: value, Unit: unit, Better: better}
}

func (r Row) tol(t float64) Row { r.Tolerance = &t; return r }

func (r Row) limit(l float64) Row { r.Limit = &l; return r }

// label names the row in gate messages.
func (r Row) label() string {
	if r.GOMAXPROCS > 0 {
		return fmt.Sprintf("%s (GOMAXPROCS=%d)", r.Op, r.GOMAXPROCS)
	}
	return r.Op
}

type rowKey struct {
	op    string
	procs int
}

// validate rejects row sets Compare could not gate faithfully. Load and
// WriteRows share it, so a baseline Load would refuse is never written.
func validate(rows []Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("no rows")
	}
	seen := make(map[rowKey]bool, len(rows))
	for i, r := range rows {
		var problem string
		switch {
		case r.Op == "" || r.Unit == "":
			problem = "op and unit are required"
		case r.Clock != ClockSim && r.Clock != ClockWall && r.Clock != ClockCount:
			problem = fmt.Sprintf("clock %q is not sim, wall or count", r.Clock)
		case (r.Clock == ClockWall) != (r.GOMAXPROCS > 0):
			problem = "gomaxprocs belongs on wall rows, and only there"
		case r.Better != "" && r.Better != lower && r.Better != higher:
			problem = fmt.Sprintf("better %q is not lower or higher", r.Better)
		case r.Better == "" && (r.Tolerance != nil || r.Limit != nil):
			problem = "a gated row must say which direction is better"
		case r.Tolerance != nil && !(*r.Tolerance > 0):
			problem = fmt.Sprintf("tolerance %v is not positive", *r.Tolerance)
		case seen[rowKey{r.Op, r.GOMAXPROCS}]:
			problem = "duplicate (op, gomaxprocs)"
		}
		if problem != "" {
			return fmt.Errorf("row %d (%s): %s", i, r.label(), problem)
		}
		seen[rowKey{r.Op, r.GOMAXPROCS}] = true
	}
	return nil
}

// Load reads and validates a baseline file written by WriteRows.
func Load(path string) ([]Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rows []Row
	if err := dec.Decode(&rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := validate(rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// WriteRows writes rows as a JSON array, one row per line (so a baseline
// diff reads row by row).
func WriteRows(path string, rows []Row) error {
	if err := validate(rows); err != nil {
		return err
	}
	lines := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("row %d (%s): %w", i, r.label(), err)
		}
		lines[i] = string(b)
	}
	return os.WriteFile(path, []byte("[\n"+strings.Join(lines, ",\n")+"\n]\n"), 0o644)
}

// Compare gates current rows and returns one message per failure (empty =
// pass). The rules, each carried by the current row itself:
//
//   - verified == false fails: the op's result check did not hold.
//   - limit: fails when the value is on the worse side of it. Absolute, so
//     it fires with no baseline at all.
//   - tolerance: fails when the value is worse than the baseline row with
//     the same (op, gomaxprocs) by more than the tolerance. A row absent
//     from the baseline is skipped (the suite may grow, and wall rows only
//     meet a baseline recorded at the same GOMAXPROCS).
//   - none of these: informational, never fails.
func Compare(baseline, current []Row) []string {
	base := make(map[rowKey]Row, len(baseline))
	for _, b := range baseline {
		base[rowKey{b.Op, b.GOMAXPROCS}] = b
	}
	var problems []string
	for _, r := range current {
		worse := func(bound float64) bool {
			if r.Better == higher {
				return r.Value < bound
			}
			return r.Value > bound
		}
		if r.Verified != nil && !*r.Verified {
			problems = append(problems, fmt.Sprintf("%s: result check failed (verified=false)", r.label()))
		}
		if r.Limit != nil && worse(*r.Limit) {
			problems = append(problems, fmt.Sprintf("%s: %.6g %s is past the absolute limit %.6g",
				r.label(), r.Value, r.Unit, *r.Limit))
		}
		b, ok := base[rowKey{r.Op, r.GOMAXPROCS}]
		if !ok || r.Tolerance == nil {
			continue
		}
		slack := *r.Tolerance
		if r.Clock != ClockCount {
			if b.Value <= 0 {
				continue
			}
			slack *= b.Value
		}
		if r.Better == higher {
			slack = -slack
		}
		if worse(b.Value + slack) {
			problems = append(problems, fmt.Sprintf("%s: %.6g %s vs baseline %.6g (tolerance %g)",
				r.label(), r.Value, r.Unit, b.Value, *r.Tolerance))
		}
	}
	return problems
}

// Op is one entry of the op table, in the Benchmark{Run(); Verify()} shape:
// Run measures and returns the op's rows (metric names only; the suite
// prefixes the op name and stamps clock and GOMAXPROCS), and Verify, when
// non-nil, checks what Run computed against an oracle — so no op can get
// faster by getting wrong.
type Op struct {
	Name   string
	Clock  string
	Run    func() ([]Row, error)
	Verify func() bool
}

// SuiteOptions selects and parameterizes a suite run.
type SuiteOptions struct {
	// Count is the number of timed runs per host-kernel op (best reported).
	Count int
	// Portable keeps only sim and count ops: the rows a baseline from
	// another machine can gate.
	Portable bool
	// Filter, when non-nil, keeps only ops whose name matches (fixtures
	// for skipped ops are never built).
	Filter *regexp.Regexp
	// Emit, when non-nil, sees each row as soon as its op finishes.
	Emit func(Row)
}

// RunSuite runs the selected ops in table order. Wall ops run once at
// GOMAXPROCS 1 and once at runtime.NumCPU() (one set when they coincide).
func RunSuite(o SuiteOptions) ([]Row, error) {
	var rows []Row
	for _, op := range suiteOps(o) {
		if o.Portable && op.Clock == ClockWall || o.Filter != nil && !o.Filter.MatchString(op.Name) {
			continue
		}
		procs := []int{0}
		if op.Clock == ClockWall {
			procs = []int{1}
			if n := runtime.NumCPU(); n > 1 {
				procs = append(procs, n)
			}
		}
		for _, p := range procs {
			got, err := runOp(op, p)
			if err != nil {
				return rows, fmt.Errorf("%s: %w", op.Name, err)
			}
			for _, r := range got {
				if o.Emit != nil {
					o.Emit(r)
				}
			}
			rows = append(rows, got...)
		}
	}
	return rows, nil
}

// runOp runs one op with GOMAXPROCS pinned to procs (count ops pin to one P
// so no other goroutine's allocations are misbilled; sim ops run as is) and
// returns its finished rows.
func runOp(op Op, procs int) ([]Row, error) {
	pin := procs
	if op.Clock == ClockCount {
		pin = 1
	}
	if pin > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pin))
	}
	rows, err := op.Run()
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Op = op.Name + "/" + rows[i].Op
		rows[i].Clock = op.Clock
		rows[i].GOMAXPROCS = procs
	}
	if op.Verify != nil {
		ok := op.Verify()
		rows[0].Verified = &ok
	}
	return rows, nil
}

// suiteOps is the op table.
func suiteOps(o SuiteOptions) []Op {
	ops := hostOps(o.Count)
	for _, c := range ServingConcurrencies {
		ops = append(ops, servingOp(c))
	}
	ops = append(ops, soakSimOp())
	return append(ops, probeOps()...)
}
