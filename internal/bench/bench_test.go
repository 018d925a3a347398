package bench

import (
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps the functional experiments fast enough for unit tests.
func tinyOpts() Options {
	opts := DefaultOptions()
	opts.Refs = 5
	opts.Queries = 6
	opts.FeatureScale = 8
	opts.MinMatches = 6
	opts.SystemRefs = 100_000
	return opts
}

// tinyTables memoizes Run([]string{id}, tinyOpts()): the shape tests and
// TestAllMatchesRun read one run of each experiment.
var tinyTables = map[string]*Table{}

func tiny(t *testing.T, id string) *Table {
	t.Helper()
	if tb, ok := tinyTables[id]; ok {
		return tb
	}
	tbs, err := Run([]string{id}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tinyTables[id] = tbs[0]
	return tbs[0]
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func row(t *testing.T, tb *Table, key string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if strings.Contains(r[0], key) {
			return r
		}
	}
	t.Fatalf("table %s has no row containing %q", tb.ID, key)
	return nil
}

func TestTable1Shape(t *testing.T) {
	tb := tiny(t, "table1")
	speeds := row(t, tb, "Speed")
	base := cellFloat(t, speeds[1])
	garcia := cellFloat(t, speeds[2])
	ours := cellFloat(t, speeds[3])
	fp16 := cellFloat(t, speeds[4])
	// Paper ordering: baseline < Garcia < ours; FP16 slightly slower than
	// FP32 at batch 1 (the half-precision compare penalty).
	if !(base < garcia && garcia < ours) {
		t.Fatalf("speed ordering wrong: %v %v %v", base, garcia, ours)
	}
	if !(fp16 < ours && fp16 > garcia) {
		t.Fatalf("FP16 batch-1 speed should sit between Garcia and ours: %v", fp16)
	}
	// Within 10% of the paper's anchors.
	anchors := []float64{2012, 3027, 6734, 5917}
	for i, want := range anchors {
		got := cellFloat(t, speeds[i+1])
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("variant %d speed %v, paper %v", i, got, want)
		}
	}
	mem := row(t, tb, "GPU memory")
	if cellFloat(t, mem[4]) >= cellFloat(t, mem[1]) {
		t.Fatal("FP16 memory should be roughly half of FP32")
	}
}

func TestTable2Shape(t *testing.T) {
	tb := tiny(t, "table2")
	// Scale factor 1 must overflow.
	var sawOverflow bool
	errs := map[string]float64{}
	for _, r := range tb.Rows {
		if r[1] == "1" && r[2] == "overflow" {
			sawOverflow = true
		}
		if r[2] != "overflow" && r[2] != dash {
			errs[r[1]] = cellFloat(t, r[2])
		}
	}
	if !sawOverflow {
		t.Fatal("scale factor 1 should overflow FP16 accumulation")
	}
	// Plateau: production scale 2^-7 error well under 1%; tiny scales lose
	// precision to subnormals.
	if errs["2^-7"] > 0.5 {
		t.Fatalf("2^-7 compression error %v%%, want < 0.5%%", errs["2^-7"])
	}
	if errs["2^-16"] <= errs["2^-7"] {
		t.Fatalf("2^-16 error (%v) should exceed 2^-7 error (%v)", errs["2^-16"], errs["2^-7"])
	}
}

func TestTable3Shape(t *testing.T) {
	tb := tiny(t, "table3")
	speeds := row(t, tb, "Speed")
	single := cellFloat(t, speeds[1])
	batched := cellFloat(t, speeds[2])
	if batched < 5*single {
		t.Fatalf("batching speedup only %.1fx (paper: 7.9x)", batched/single)
	}
	if batched < 40000 || batched > 52000 {
		t.Fatalf("batched speed %v, paper 45,539", batched)
	}
}

func TestTable4Shape(t *testing.T) {
	tb := tiny(t, "table4")
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 GPU rows, got %d", len(tb.Rows))
	}
	p100 := cellFloat(t, tb.Rows[0][4])
	v100 := cellFloat(t, tb.Rows[1][4])
	tc := cellFloat(t, tb.Rows[2][4])
	// Tensor cores have by far the lowest end-to-end efficiency at this
	// matrix shape (Table 4's headline observation).
	if !(tc < v100 && tc < p100) {
		t.Fatalf("tensor-core efficiency should be lowest: %v %v %v", p100, v100, tc)
	}
	if p100 < 30 || p100 > 45 {
		t.Fatalf("P100 efficiency %v%%, paper 35.8%%", p100)
	}
}

func TestTable5Shape(t *testing.T) {
	tb := tiny(t, "table5")
	gpu := cellFloat(t, row(t, tb, "GPU memory")[1])
	pageable := cellFloat(t, row(t, tb, "w/o pinned")[1])
	pinned := cellFloat(t, row(t, tb, "w/ pinned")[1])
	if !(gpu > pinned && pinned > pageable) {
		t.Fatalf("want gpu > pinned > pageable, got %v %v %v", gpu, pinned, pageable)
	}
	// Paper: pinned hybrid loses ~44% vs GPU-resident.
	drop := 1 - pinned/gpu
	if drop < 0.30 || drop > 0.60 {
		t.Fatalf("hybrid slowdown %.0f%%, paper ~44%%", drop*100)
	}
}

func TestTable6Shape(t *testing.T) {
	tb := tiny(t, "table6")
	speeds := map[string]float64{}
	for _, r := range tb.Rows {
		speeds[r[0]+"/"+r[1]] = cellFloat(t, r[3])
	}
	for _, batch := range []string{"512", "256"} {
		s1 := speeds[batch+"/1"]
		s2 := speeds[batch+"/2"]
		s8 := speeds[batch+"/8"]
		if !(s2 > s1 && s8 >= s2) {
			t.Fatalf("batch %s: streams must not slow search: %v %v %v", batch, s1, s2, s8)
		}
		if s8 < s1*1.5 {
			t.Fatalf("batch %s: 8 streams should recover most of the PCIe loss (%.0f vs %.0f)", batch, s8, s1)
		}
	}
	// Extra GPU memory grows linearly with streams.
	var ws1, ws8 float64
	for _, r := range tb.Rows {
		if r[0] == "512" && r[1] == "1" {
			ws1 = cellFloat(t, r[2])
		}
		if r[0] == "512" && r[1] == "8" {
			ws8 = cellFloat(t, r[2])
		}
	}
	if ws8 < ws1*7.5 || ws8 > ws1*8.5 {
		t.Fatalf("workspace should scale ~8x with 8 streams: %v -> %v", ws1, ws8)
	}
}

func TestTable7Shape(t *testing.T) {
	tb := tiny(t, "table7")
	if len(tb.Rows) != 7 {
		t.Fatalf("want 7 configurations, got %d", len(tb.Rows))
	}
	// Speed rises monotonically as m shrinks (m sweep is rows 0-3).
	var prev float64
	for i := 0; i < 4; i++ {
		speed := cellFloat(t, tb.Rows[i][3])
		if speed <= prev {
			t.Fatalf("speed not increasing as m shrinks: row %d = %v", i, speed)
		}
		prev = speed
	}
	// Accuracy must not increase when m shrinks (allowing equality at this
	// tiny dataset size).
	accFull := cellFloat(t, tb.Rows[0][2])
	accSmall := cellFloat(t, tb.Rows[3][2])
	if accSmall > accFull {
		t.Fatalf("accuracy increased with fewer reference features: %v -> %v", accFull, accSmall)
	}
	// The paper's operating point row exists.
	if tb.Rows[2][0] != "384" || tb.Rows[2][1] != "768" {
		t.Fatalf("row 2 should be the m=384,n=768 operating point: %v", tb.Rows[2])
	}
}

func TestFig1Shape(t *testing.T) {
	tb := tiny(t, "fig1")
	last := tb.Rows[len(tb.Rows)-1]
	speedup := cellFloat(t, last[3])
	capacity := cellFloat(t, last[4])
	if speedup < 25 || speedup > 45 {
		t.Fatalf("cumulative speedup %vx, paper 31x", speedup)
	}
	if capacity < 19 || capacity > 21 {
		t.Fatalf("cumulative capacity %vx, paper 20x", capacity)
	}
	// Capacity doubles at the FP16 stage and again at the asymmetric stage.
	capFP32 := cellFloat(t, tb.Rows[0][2])
	capFP16 := cellFloat(t, tb.Rows[2][2])
	if capFP16 < capFP32*1.9 || capFP16 > capFP32*2.1 {
		t.Fatalf("FP16 should double capacity: %v -> %v", capFP32, capFP16)
	}
}

func TestFig4Shape(t *testing.T) {
	tb := tiny(t, "fig4")
	if len(tb.Rows) != 11 { // batch 1..1024 in powers of two
		t.Fatalf("want 11 batch sizes, got %d", len(tb.Rows))
	}
	for col := 1; col <= 3; col++ {
		var prev float64
		for _, r := range tb.Rows {
			v := cellFloat(t, r[col])
			if v <= prev {
				t.Fatalf("column %d not monotone at batch %s", col, r[0])
			}
			prev = v
		}
	}
	// Gains flatten: the last doubling adds < 5%.
	p512 := cellFloat(t, tb.Rows[9][1])
	p1024 := cellFloat(t, tb.Rows[10][1])
	if p1024/p512 > 1.05 {
		t.Fatalf("speed should flatten past batch 256: %v -> %v", p512, p1024)
	}
	// V100+TC is the fastest at large batch.
	if cellFloat(t, tb.Rows[10][3]) <= cellFloat(t, tb.Rows[10][2]) {
		t.Fatal("tensor cores should win at batch 1024")
	}
}

func TestSystemShape(t *testing.T) {
	tb := tiny(t, "system")
	cap := cellFloat(t, row(t, tb, "Capacity")[1])
	if cap < 10e6 || cap > 13e6 {
		t.Fatalf("capacity %v, paper 10.8M", cap)
	}
	basis := cellFloat(t, row(t, tb, "Table-7 basis")[1])
	if basis < 700_000 || basis > 1_300_000 {
		t.Fatalf("aggregate speed %v, paper 872,984", basis)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run([]string{"table4", "nope"}, tinyOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	tbs, err := Run([]string{"table4", "table1"}, tinyOpts())
	if err != nil || len(tbs) != 2 || tbs[0].ID != "Table 4" || tbs[1].ID != "Table 1" {
		t.Fatalf("Run(table4, table1) = %v, %v", tbs, err)
	}
	for _, id := range Experiments {
		if id == "" {
			t.Fatal("empty experiment id")
		}
	}
}

// TestAllMatchesRun holds Run's one runner for a list, here the whole
// registry, to a fresh runner per experiment: every experiment renders the
// same markdown either way, so none writes to the dataset the runner
// shares.
func TestAllMatchesRun(t *testing.T) {
	all, err := Run(nil, tinyOpts())
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Run(nil) = %d tables, %v; want %d", len(all), err, len(Experiments))
	}
	for i, id := range Experiments {
		if got, want := all[i].Markdown(), tiny(t, id).Markdown(); got != want {
			t.Errorf("%s under All:\n%s\nalone:\n%s", id, got, want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("n%d", 5)
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "note: n5") {
		t.Fatalf("String output wrong:\n%s", s)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "*n5*") {
		t.Fatalf("Markdown output wrong:\n%s", md)
	}
}

func TestOptionsScaled(t *testing.T) {
	opts := Options{FeatureScale: 4}
	if opts.scaled(768) != 192 {
		t.Fatalf("scaled(768) = %d", opts.scaled(768))
	}
	opts.FeatureScale = 1000
	if opts.scaled(768) != 8 {
		t.Fatal("scaled() should clamp at a usable minimum")
	}
}

func TestQueryBatchShape(t *testing.T) {
	tb := tiny(t, "qbatch")
	if len(tb.Rows) != 6 {
		t.Fatalf("want 6 batch sizes, got %d", len(tb.Rows))
	}
	// Throughput non-decreasing, latency increasing roughly linearly.
	var prevTP, prevLat float64
	for i, r := range tb.Rows {
		tp := cellFloat(t, r[1])
		lat := cellFloat(t, r[2])
		if tp < prevTP*0.99 {
			t.Fatalf("throughput dropped at row %d: %v -> %v", i, prevTP, tp)
		}
		if lat <= prevLat {
			t.Fatalf("latency must grow with query batch at row %d", i)
		}
		prevTP, prevLat = tp, lat
	}
	lastLat := cellFloat(t, tb.Rows[5][3])
	if lastLat < 25 || lastLat > 40 {
		t.Fatalf("32-query latency multiplier %vx, want ~31x", lastLat)
	}
}

func TestAblateSortShape(t *testing.T) {
	tb := tiny(t, "ablate-sort")
	for _, r := range tb.Rows {
		adv := cellFloat(t, r[3])
		if adv < 3 {
			t.Fatalf("scan advantage %vx at batch %s, want substantial", adv, r[0])
		}
	}
}

func TestAblateSwapShape(t *testing.T) {
	tb := tiny(t, "ablate-swap")
	whole := cellFloat(t, tb.Rows[0][1])
	per := cellFloat(t, tb.Rows[1][1])
	if per < 2*whole {
		t.Fatalf("per-image DMA should be much slower: %v vs %v", per, whole)
	}
}

func TestAblateJitterShape(t *testing.T) {
	tb := tiny(t, "ablate-jitter")
	// At every jitter level, 8 streams beat 1 stream; and at 2 streams,
	// higher jitter means lower efficiency (the Table 6 mechanism).
	var prev2 float64 = 200
	for _, r := range tb.Rows {
		s1 := cellFloat(t, r[1])
		s2 := cellFloat(t, r[2])
		s8 := cellFloat(t, r[4])
		if s8 <= s1 {
			t.Fatalf("CoV %s: 8 streams (%v%%) should beat 1 (%v%%)", r[0], s8, s1)
		}
		if s2 > prev2+1e-9 {
			t.Fatalf("2-stream efficiency should fall as jitter grows: %v -> %v", prev2, s2)
		}
		prev2 = s2
	}
}

func TestCBIRShape(t *testing.T) {
	tb := tiny(t, "cbir")
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 methods, got %d", len(tb.Rows))
	}
	ours := cellFloat(t, tb.Rows[0][2])
	pq := cellFloat(t, tb.Rows[2][2])
	if pq > ours {
		t.Fatalf("PQ-compressed CBIR should not beat per-image matching: %v vs %v", pq, ours)
	}
}

func TestAblateDescriptorShape(t *testing.T) {
	tb := tiny(t, "ablate-descriptor")
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 descriptor rows, got %d", len(tb.Rows))
	}
	siftAcc := cellFloat(t, tb.Rows[0][3])
	surfAcc := cellFloat(t, tb.Rows[1][3])
	siftSpeed := cellFloat(t, tb.Rows[0][4])
	surfSpeed := cellFloat(t, tb.Rows[1][4])
	if surfSpeed <= siftSpeed {
		t.Fatalf("d=64 must be faster: %v vs %v", surfSpeed, siftSpeed)
	}
	if surfAcc > siftAcc {
		t.Fatalf("SURF should not beat SIFT on this texture task: %v vs %v", surfAcc, siftAcc)
	}
	orbAcc := cellFloat(t, tb.Rows[2][3])
	if orbAcc > siftAcc {
		t.Fatalf("ORB should not beat SIFT on this texture task: %v vs %v", orbAcc, siftAcc)
	}
	orbSpeed := cellFloat(t, tb.Rows[2][4])
	if orbSpeed <= siftSpeed {
		t.Fatalf("binary Hamming matching should outpace the FP16 GEMM path: %v vs %v", orbSpeed, siftSpeed)
	}
}

func TestVerifyCostShape(t *testing.T) {
	tb := tiny(t, "verify-cost")
	// Verification (M=1): extraction dominates; million-scale search:
	// matching dominates.
	first := cellFloat(t, tb.Rows[0][4])
	last := cellFloat(t, tb.Rows[len(tb.Rows)-1][4])
	if first > 50 {
		t.Fatalf("verification matching share %v%%, want minority", first)
	}
	if last < 99 {
		t.Fatalf("million-scale matching share %v%%, want ~100%%", last)
	}
}

func TestDifficultySweepShape(t *testing.T) {
	tb := tiny(t, "difficulty")
	if len(tb.Rows) != 5 {
		t.Fatalf("want 5 difficulty points, got %d", len(tb.Rows))
	}
	first := cellFloat(t, tb.Rows[0][1])
	hardest := (cellFloat(t, tb.Rows[3][1]) + cellFloat(t, tb.Rows[4][1])) / 2
	if hardest >= first {
		t.Fatalf("accuracy should fall with difficulty: easiest %v%%, mean of the two hardest %v%%", first, hardest)
	}
	if first < 50 {
		t.Fatalf("easy captures should mostly identify: %v%%", first)
	}
}

func TestDeviceProjectionShape(t *testing.T) {
	tb := tiny(t, "devices")
	if len(tb.Rows) != 4 {
		t.Fatalf("want 4 devices, got %d", len(tb.Rows))
	}
	var prev float64
	for _, r := range tb.Rows {
		v := cellFloat(t, r[1])
		if v <= prev {
			t.Fatalf("resident speed should rise across generations: %s = %v", r[0], v)
		}
		prev = v
	}
	// Newer devices become PCIe-bound in hybrid mode.
	if tb.Rows[3][3] != "PCIe" {
		t.Fatalf("A100 hybrid should be PCIe-bound, got %s", tb.Rows[3][3])
	}
}

func TestAblateGeometricShape(t *testing.T) {
	tb := tiny(t, "ablate-geometric")
	if len(tb.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tb.Rows))
	}
	rawAcc := cellFloat(t, tb.Rows[0][1])
	geoAcc := cellFloat(t, tb.Rows[1][1])
	rawFAR := cellFloat(t, tb.Rows[0][2])
	geoFAR := cellFloat(t, tb.Rows[1][2])
	if geoFAR > rawFAR {
		t.Fatalf("RANSAC should not raise the false-accept rate: %v -> %v", rawFAR, geoFAR)
	}
	if geoAcc < rawAcc-25 {
		t.Fatalf("RANSAC should not destroy true accuracy: %v -> %v", rawAcc, geoAcc)
	}
}

func TestPruneSweepShape(t *testing.T) {
	tb := tiny(t, "prune")
	if len(tb.Rows) != 6 {
		t.Fatalf("want 6 budget rows, got %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "off" {
		t.Fatalf("first row should be the unpruned baseline, got %q", tb.Rows[0][0])
	}
	offRecall := cellFloat(t, tb.Rows[0][1])
	offAcc := cellFloat(t, tb.Rows[0][2])
	if offRecall != 100 {
		t.Fatalf("unpruned candidate recall must be 100%%, got %v", offRecall)
	}
	var prevRecall float64
	for _, r := range tb.Rows[1:] {
		recall := cellFloat(t, r[1])
		if recall < prevRecall {
			t.Fatalf("candidate recall should not fall as C grows: C=%s %v < %v", r[0], recall, prevRecall)
		}
		prevRecall = recall
	}
	// At the largest budget the prefilter passes everything through (C=16 >=
	// 5 refs): recall and accuracy must match the unpruned row exactly.
	last := tb.Rows[len(tb.Rows)-1]
	if cellFloat(t, last[1]) != 100 {
		t.Fatalf("C>=N recall %v, want 100", cellFloat(t, last[1]))
	}
	if cellFloat(t, last[2]) != offAcc {
		t.Fatalf("C>=N accuracy %v, want unpruned %v", cellFloat(t, last[2]), offAcc)
	}
	// Avg reranked tracks min(C, refs).
	if got := cellFloat(t, tb.Rows[1][3]); got != 1 {
		t.Fatalf("C=1 should rerank exactly 1 image/query, got %v", got)
	}
	if got := cellFloat(t, last[3]); got != 5 {
		t.Fatalf("C=16 on 5 refs should rerank all 5, got %v", got)
	}
}
