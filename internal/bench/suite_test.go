package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadAndCompare is the one table over the one loader and the one gate:
// every way a baseline file can be unusable, and every rule of Compare from
// both sides of its threshold.
func TestLoadAndCompare(t *testing.T) {
	const good = `{"op":"a/ns_per_op","clock":"wall","gomaxprocs":1,"value":100,"unit":"ns/op","better":"lower","tolerance":0.2}`
	loads := []struct {
		name, file, wantErr string
	}{
		{"missing file", "", "no such file"},
		{"malformed JSON", `[{"op":`, "unexpected EOF"},
		{"zero rows", `[]`, "no rows"},
		{"duplicate (op, gomaxprocs)", `[` + good + `,` + good + `]`, "duplicate"},
		{"same op at two GOMAXPROCS", `[` + good + `,` + strings.Replace(good, `"gomaxprocs":1`, `"gomaxprocs":4`, 1) + `]`, ""},
		{"zero tolerance", `[` + strings.Replace(good, `0.2`, `0`, 1) + `]`, "not positive"},
		{"negative tolerance", `[` + strings.Replace(good, `0.2`, `-0.1`, 1) + `]`, "not positive"},
		{"gated row without a direction", `[` + strings.Replace(good, `"better":"lower",`, ``, 1) + `]`, "which direction"},
		{"unknown clock", `[` + strings.Replace(good, `"wall"`, `"cpu"`, 1) + `]`, "not sim, wall or count"},
		{"wall row without gomaxprocs", `[` + strings.Replace(good, `"gomaxprocs":1,`, ``, 1) + `]`, "gomaxprocs"},
		{"sim row with gomaxprocs", `[` + strings.Replace(good, `"wall"`, `"sim"`, 1) + `]`, "gomaxprocs"},
		{"misspelt field", `[` + strings.Replace(good, `"tolerance"`, `"tolerence"`, 1) + `]`, "unknown field"},
	}
	for _, tc := range loads {
		path := filepath.Join(t.TempDir(), "baseline.json")
		if tc.name != "missing file" {
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rows, err := Load(path)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("load %s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("load %s: got rows %v, err %v; want error containing %q", tc.name, rows, err, tc.wantErr)
		}
	}

	wall := func(v float64, better string) Row {
		return Row{Op: "x/m", Clock: ClockWall, GOMAXPROCS: 1, Value: v, Unit: "u", Better: better}
	}
	count := func(v float64) Row {
		return Row{Op: "x/allocs_per_op", Clock: ClockCount, Value: v, Unit: "allocs/op", Better: lower}
	}
	verified := func(ok bool) Row { r := wall(1, ""); r.Verified = &ok; return r }
	other := wall(100, lower).tol(0.20)
	other.GOMAXPROCS = 4
	compares := []struct {
		name     string
		base     []Row
		cur      Row
		wantFail string // "" = pass
	}{
		{"lower-is-better just inside tolerance", []Row{wall(100, lower)}, wall(119.9, lower).tol(0.20), ""},
		{"lower-is-better just outside tolerance", []Row{wall(100, lower)}, wall(120.1, lower).tol(0.20), "vs baseline"},
		{"higher-is-better just inside tolerance", []Row{wall(100, higher)}, wall(90.1, higher).tol(0.10), ""},
		{"higher-is-better just outside tolerance", []Row{wall(100, higher)}, wall(89.9, higher).tol(0.10), "vs baseline"},
		{"improvement never fails", []Row{wall(100, lower)}, wall(10, lower).tol(0.20), ""},
		{"row absent from baseline is skipped", nil, wall(1e9, lower).tol(0.20), ""},
		{"baseline at another GOMAXPROCS is not this row's baseline", []Row{wall(100, lower)}, other, ""},
		{"ceiling met", nil, wall(5, lower).limit(5), ""},
		{"ceiling breached, no baseline needed", nil, wall(5.1, lower).limit(5), "absolute limit"},
		{"floor met", nil, wall(3, higher).limit(3), ""},
		{"floor breached", nil, wall(2.9, higher).limit(3), "absolute limit"},
		{"verified true", nil, verified(true), ""},
		{"verified false", nil, verified(false), "result check failed"},
		{"informational row never fails", []Row{wall(1, lower)}, wall(1e9, lower), ""},
		{"count row unchanged", []Row{count(278)}, count(278).tol(0.5), ""},
		{"count row within rounding slack", []Row{count(278)}, count(278.4).tol(0.5), ""},
		{"count row drifting by +1", []Row{count(278)}, count(279).tol(0.5), "vs baseline"},
		{"count row drifting up from zero", []Row{count(0)}, count(1).tol(0.5), "vs baseline"},
	}
	for _, tc := range compares {
		problems := Compare(tc.base, []Row{tc.cur})
		switch {
		case tc.wantFail == "" && len(problems) != 0:
			t.Errorf("compare %s: flagged %v", tc.name, problems)
		case tc.wantFail != "" && (len(problems) != 1 || !strings.Contains(problems[0], tc.wantFail)):
			t.Errorf("compare %s: got %v, want one problem containing %q", tc.name, problems, tc.wantFail)
		}
	}
}

// TestCommittedBaselineGates shows gate strength end to end: the committed
// BENCH_BASELINE.json loads and holds no wall row, and every absolute gate
// still fires when the row it guards moves just past its threshold — and
// stays quiet just inside it. Sim and count rows are the committed ones;
// wall rows are built the way their ops emit them, since no wall value is
// committed (their tolerances are judged against the parent commit by
// scripts/paired.py, whose doctests hold that rule).
func TestCommittedBaselineGates(t *testing.T) {
	baseline, err := Load(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range baseline {
		if r.Clock == ClockWall {
			t.Errorf("BENCH_BASELINE.json holds the wall row %s: wall rows are compared with the parent commit by scripts/bench.sh, never committed", r.label())
		}
	}
	find := func(op string) Row {
		t.Helper()
		for _, r := range baseline {
			if r.Op == op {
				return r
			}
		}
		t.Fatalf("committed baseline has no row %q", op)
		return Row{}
	}
	// at returns the committed row moved to factor x its value, +delta.
	at := func(op string, factor, delta float64) Row {
		r := find(op)
		r.Value = r.Value*factor + delta
		return r
	}
	beyond := func(op string, l float64) Row {
		r := find(op)
		if r.Limit == nil {
			t.Fatalf("%s carries no limit", op)
		}
		r.Value = *r.Limit * l
		return r
	}
	unverified := func(op string) Row {
		r := find(op)
		if r.Verified == nil {
			t.Fatalf("%s carries no result check", op)
		}
		no := false
		r.Verified = &no
		return r
	}
	// wall is a wall row at GOMAXPROCS 1, as its op emits it.
	wall := func(op string, value float64, better string) Row {
		r := newRow(op, value, "u", better)
		r.Clock, r.GOMAXPROCS = ClockWall, 1
		return r
	}
	failedCheck := func(op string) Row {
		r := wall(op, 1, lower)
		no := false
		r.Verified = &no
		return r
	}
	for _, tc := range []struct {
		gate     string
		cur      Row
		wantFail bool
	}{
		{"hgemm ceiling (5,509,981 ns)", wall("hgemm_tn_256x256x128/ns_per_op", hgemmCeilingNS*1.001, lower).limit(hgemmCeilingNS), true},
		{"fp16 search ceiling (200 ms)", wall("engine_search_steady_fp16/ns_per_op", fp16SearchCeilingNS*1.001, lower).limit(fp16SearchCeilingNS), true},
		{"binq scan ceiling (300 ms)", wall("binq_scan_1m/ns_per_op", scanCeilingNS*1.001, lower).limit(scanCeilingNS), true},
		{"pruned search 5x floor, met", wall("engine_search_steady_pruned/speedup_vs_unpruned", prunedSpeedupFloor, higher).limit(prunedSpeedupFloor), false},
		{"pruned search 5x floor, missed", wall("engine_search_steady_pruned/speedup_vs_unpruned", prunedSpeedupFloor*0.999, higher).limit(prunedSpeedupFloor), true},
		{"binq scan result check", failedCheck("binq_scan_1m/ns_per_op"), true},
		{"gemm+top2 result check", failedCheck("gemm_top2_3072x3072x128/ns_per_op"), true},
		{"hgemm+top2 result check", failedCheck("hgemm_top2_3072x768x128/ns_per_op"), true},
		{"serving identity", unverified("serving_c4/sim_qps_batched"), true},
		{"serving 3x floor at concurrency 16, met", beyond("serving_c16/speedup", 1), false},
		{"serving 3x floor at concurrency 16, missed", beyond("serving_c16/speedup", 0.999), true},
		{"batched QPS -9%", at("serving_c16/sim_qps_batched", 0.91, 0), false},
		{"batched QPS -11%", at("serving_c16/sim_qps_batched", 0.89, 0), true},
		{"sim-soak determinism and error count", unverified("soak_sim/errors"), true},
		{"alloc drift +0.4", at("probe_cluster_searchbatch_scatter/allocs_per_op", 1, 0.4), false},
		{"alloc drift +1", at("probe_cluster_searchbatch_scatter/allocs_per_op", 1, 1), true},
		{"alloc drift +1 from zero", at("probe_serve_submit_demux/allocs_per_op", 1, 1), true},
		{"alloc drift +1 on the pruned FP16 shape", at("probe_engine_search_steady_fp16_pruned/allocs_per_op", 1, 1), true},
	} {
		if problems := Compare(baseline, []Row{tc.cur}); (len(problems) != 0) != tc.wantFail {
			t.Errorf("%s: wantFail=%v, got %v", tc.gate, tc.wantFail, problems)
		}
	}
	if problems := Compare(baseline, baseline); len(problems) != 0 {
		t.Errorf("the committed baseline fails its own gate: %v", problems)
	}
}

// TestPortableSuite runs the part of the op table CI gates — the soak
// sim-clock op and the allocation probes (the serving levels have their own
// tests) — and gates the rows through Compare against the committed
// BENCH_BASELINE.json, so tier-1 enforces the same zero drift on the probe
// rows as the measurement gate, and holds the sim soak's digest rows to
// the committed ones. A gated row the baseline does not name would pass
// Compare unexamined, so that is a failure too.
func TestPortableSuite(t *testing.T) {
	var all []Row
	values := map[string]float64{}
	for _, op := range append(probeOps(), soakSimOp()) {
		rows, err := runOp(op, 0)
		if err != nil {
			t.Fatalf("%s: %v", op.Name, err)
		}
		if rows[0].Verified == nil || !*rows[0].Verified {
			t.Errorf("%s: result check failed: %+v", op.Name, rows[0])
		}
		for _, r := range rows {
			values[r.Op] = r.Value
		}
		if err := validate(rows); err != nil {
			t.Errorf("%s emits rows Load would refuse: %v", op.Name, err)
		}
		all = append(all, rows...)
	}
	if values["soak_sim/ops"] != float64(soakSimConfig.Ops) {
		t.Errorf("sim soak replayed %.0f ops, want %d", values["soak_sim/ops"], soakSimConfig.Ops)
	}
	baseline, err := Load(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The sim soak's digest is a contract, not a measurement: its rows say
	// no direction, so Compare never reads them, and they are held here to
	// the committed rows exactly (under the race detector too: the sim
	// clock does not see it).
	pinned := 0
	for _, b := range baseline {
		if b.Op == "soak_sim/digest_hi32" || b.Op == "soak_sim/digest_lo32" {
			pinned++
			if got := values[b.Op]; got != b.Value {
				t.Errorf("%s = %.0f, want the committed %.0f: the sim soak's transcript changed", b.Op, got, b.Value)
			}
		}
	}
	if pinned != 2 {
		t.Errorf("BENCH_BASELINE.json has %d soak_sim digest rows, want 2", pinned)
	}
	if raceDetector {
		// The detector's instrumentation allocates (39.3 against 37 on the
		// engine probe), so under it only the loose bounds hold.
		if a := values["probe_serve_submit_demux/allocs_per_op"]; a > 0.5 {
			t.Errorf("batcher submit/demux allocates %.1f/op, want 0", a)
		}
		if a := values["probe_engine_search_steady/allocs_per_op"]; a > 50 {
			t.Errorf("engine steady-state search allocates %.1f/op, drifted above the pinned bound", a)
		}
		return
	}
	for _, problem := range Compare(baseline, all) {
		t.Errorf("REGRESSION: %s", problem)
	}
	committed := map[string]bool{}
	for _, b := range baseline {
		committed[b.Op] = true
	}
	for _, r := range all {
		if r.Tolerance != nil && !committed[r.Op] {
			t.Errorf("%s is gated against a baseline row BENCH_BASELINE.json does not have", r.Op)
		}
	}
}
