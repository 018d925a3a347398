package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/match"
	"texid/internal/sift"
)

func prunedConfig(c int) Config {
	cfg := testConfig()
	cfg.PruneC = c
	return cfg
}

func enrollTestRefs(t *testing.T, e *Engine, rng *rand.Rand, n int) []*blas.Matrix {
	t.Helper()
	refs := make([]*blas.Matrix, n)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := e.Add(100+i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return refs
}

func sameRanked(a, b []match.SearchResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrunedSearchFindsReference: the prefilter must not prune away the
// true match at the default candidate budget.
func TestPrunedSearchFindsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e, err := New(prunedConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	refs := enrollTestRefs(t, e, rng, 12)
	q := queryFor(rng, refs[7], 32, 0.02)
	rep, err := e.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestID != 107 {
		t.Fatalf("best = %d, want 107 (ranked %v)", rep.BestID, rep.Ranked)
	}
	if rep.Scanned != 12 {
		t.Fatalf("scanned %d, want 12", rep.Scanned)
	}
	if rep.Compared != 4 {
		t.Fatalf("compared %d, want PruneC=4", rep.Compared)
	}
}

// TestPrunedSearchDeterministic: byte-identical results across repeated
// runs and GOMAXPROCS settings — the scan, selection, and rerank must not
// depend on scheduling.
func TestPrunedSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e, err := New(prunedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	refs := enrollTestRefs(t, e, rng, 11)
	q := queryFor(rng, refs[4], 32, 0.05)

	type outcome struct {
		best, score int
		ranked      []match.SearchResult
	}
	var runs []outcome
	for run := 0; run < 3; run++ {
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			rep, err := e.Search(q, nil)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, outcome{rep.BestID, rep.Score,
				append([]match.SearchResult(nil), rep.Ranked...)})
		}
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].best != runs[0].best || runs[i].score != runs[0].score ||
			!sameRanked(runs[i].ranked, runs[0].ranked) {
			t.Fatalf("run %d differs: %+v vs %+v", i, runs[i], runs[0])
		}
	}
}

// TestPruneCCoveringAllRefsMatchesUnpruned: with C >= N the prefilter
// passes everything through, and — for every precision, residency, query
// width and search shape — the slot-set match's reports must be bitwise
// identical to the unpruned engine's whole-batch ones. (The device clock
// differs by design: the pruned engine still pays the scan and the gather.)
func TestPruneCCoveringAllRefsMatchesUnpruned(t *testing.T) {
	plainCases := searchCases(0)
	for i, sc := range searchCases(equivRefs + 5) {
		t.Run(sc.name, func(t *testing.T) {
			pruned, queries := sc.fixture(t)
			plain, _ := plainCases[i].fixture(t)
			same := func(what string, rp, ru *Report) {
				t.Helper()
				if rp.Scanned != equivRefs || rp.Compared != equivRefs {
					t.Fatalf("%s: scanned %d compared %d, want %d", what, rp.Scanned, rp.Compared, equivRefs)
				}
				unscanned := *rp
				unscanned.Scanned = ru.Scanned
				requireSameReport(t, what+": pruned C>=N vs unpruned", &unscanned, ru, false)
			}
			for qi, q := range queries {
				rp, err := pruned.Search(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				ru, err := plain.Search(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("Search(query %d)", qi), rp, ru)
			}
			bp, err := pruned.SearchBatch(queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			bu, err := plain.SearchBatch(queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				same(fmt.Sprintf("SearchBatch query %d", qi), bp.Reports[qi], bu.Reports[qi])
			}
		})
	}
}

// TestPruneCZeroIsUnpruned: the zero value takes the legacy single-phase
// path — no scan op, Scanned stays 0, full Compared.
func TestPruneCZeroIsUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := enrollTestRefs(t, e, rng, 6)
	rep, err := e.Search(queryFor(rng, refs[0], 32, 0.05), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 {
		t.Fatalf("unpruned search reports Scanned=%d", rep.Scanned)
	}
	if rep.Compared != 6 {
		t.Fatalf("compared %d, want 6", rep.Compared)
	}
	if e.Thresholds() != nil {
		t.Fatal("thresholds learned with pruning off")
	}
}

// TestPrunedSearchBatchMatchesSingle: with the prefilter on — a strict
// candidate subset and a budget covering every reference — a batch member
// gets the report it would get alone, and SearchBatch([q]) is Search(q).
func TestPrunedSearchBatchMatchesSingle(t *testing.T) { testBatchMatchesSingle(t, 4, equivRefs+5) }

// TestPrunedSearchBatchSharedBatch: the queries of a pruned batch pick
// their candidates in one shared batch, some of them the same slots and
// some not, so the kernel computes only the (slot, query) cells each query
// reads, over 32-column panels that straddle two 20-column queries. Every
// member's report must still be the one Search gives it alone, at FP32 and
// FP16.
func TestPrunedSearchBatchSharedBatch(t *testing.T) {
	for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
		t.Run(prec.String(), func(t *testing.T) {
			fixture := func() (*Engine, []*blas.Matrix) {
				cfg := prunedConfig(3)
				cfg.Precision, cfg.BatchSize, cfg.QueryFeatures = prec, 16, 20
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(47))
				refs := enrollTestRefs(t, e, rng, 12)
				return e, []*blas.Matrix{
					queryFor(rng, refs[1], 20, 0.03),
					queryFor(rng, refs[1], 20, 0.05),
					queryFor(rng, refs[2], 17, 0.03),
					queryFor(rng, refs[9], 20, 0.03),
				}
			}
			e, queries := fixture()
			if st := e.Stats(); st.Batches != 1 {
				t.Fatalf("%d batches, want the one every candidate shares", st.Batches)
			}
			br, err := e.SearchBatch(queries, nil)
			if err != nil {
				t.Fatal(err)
			}
			ps := &e.prune
			var overlap, disjoint bool
			for a := range queries {
				for b := a + 1; b < len(queries); b++ {
					shared := 0
					for _, g := range ps.cand[ps.candOff[a]:ps.candOff[a+1]] {
						if slices.Contains(ps.cand[ps.candOff[b]:ps.candOff[b+1]], g) {
							shared++
						}
					}
					overlap, disjoint = overlap || shared > 0, disjoint || shared == 0
				}
			}
			if !overlap || !disjoint {
				t.Fatalf("candidates %v (offsets %v): want some sets to overlap and some to be disjoint", ps.cand, ps.candOff)
			}
			for qi, q := range queries {
				eSingle, _ := fixture()
				single, err := eSingle.Search(q, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, fmt.Sprintf("query %d: batch member vs Search(q)", qi), br.Reports[qi], single, false)
			}
		})
	}
}

// TestPrunedPhantomSearch: phantom-enrolled engines still charge the scan
// and rerank only C candidates.
func TestPrunedPhantomSearch(t *testing.T) {
	cfg := prunedConfig(8)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPhantom(0, 64); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Search(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 64 {
		t.Fatalf("scanned %d, want 64", rep.Scanned)
	}
	if rep.Compared != 8 {
		t.Fatalf("compared %d, want 8", rep.Compared)
	}
	if rep.ElapsedUS <= 0 {
		t.Fatalf("no simulated time: %+v", rep)
	}
}

// TestPrunedCompactKeepsCodes: compaction must carry the enrolled codes
// (and thresholds) through, so pruned searches keep working bit-for-bit —
// every live record Export hands out (features, keypoints, codes) is
// byte-identical before and after, repacked into the fewest batches.
func TestPrunedCompactKeepsCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	cfg := prunedConfig(3)
	cfg.Match.Geometric = true // keeps the reference keypoints
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := enrollTestRefs(t, e, rng, 8)
	q := queryFor(rng, refs[5], 32, 0.05)
	before, err := e.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{100, 103} {
		if !e.Remove(id) {
			t.Fatalf("remove %d failed", id)
		}
	}
	// An Update rewrites its slot in place, so only the two removes leave
	// tombstones; the new keypoints must survive Compact.
	if err := e.Update(106, unitFeatures(rng, 16, 24), []sift.Keypoint{{X: 1, Y: 2, Sigma: 3, Octave: 1}}); err != nil {
		t.Fatal(err)
	}
	exported := func() []string {
		var recs []string
		err := e.Export(func(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error {
			if len(codes) != cfg.RefFeatures {
				t.Fatalf("reference %d exported %d codes, want %d", id, len(codes), cfg.RefFeatures)
			}
			recs = append(recs, fmt.Sprintf("%d %x %v %x", id, feats.Data, kps, codes))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	want := exported()
	reclaimed, err := e.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 2 {
		t.Fatalf("reclaimed %d, want 2", reclaimed)
	}
	if got := exported(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Export changed across Compact:\n got %v\nwant %v", got, want)
	}
	if got, live := e.Stats().Batches, len(want); got != (live+cfg.BatchSize-1)/cfg.BatchSize {
		t.Fatalf("%d batches hold %d live references at batch size %d", got, live, cfg.BatchSize)
	}
	after, err := e.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.BestID != before.BestID {
		t.Fatalf("best changed after compact: %d vs %d", after.BestID, before.BestID)
	}
	if after.Scanned != 6 {
		t.Fatalf("scanned %d after compact, want 6", after.Scanned)
	}
}

// TestPruneConfigValidation: pruning is RootSIFT-only and bounded by the
// code width.
func TestPruneConfigValidation(t *testing.T) {
	cfg := prunedConfig(4)
	cfg.Algorithm = 0 // Baseline
	if _, err := New(cfg); err == nil {
		t.Fatal("pruning accepted for non-RootSIFT algorithm")
	}
	cfg = prunedConfig(4)
	cfg.Dim = 256
	if _, err := New(cfg); err == nil {
		t.Fatal("pruning accepted for dim > 128")
	}
}

// TestThresholdLifecycle: SetThresholds only on an empty pruning engine,
// Thresholds returns the learned vector after the first seal.
func TestThresholdLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	e, err := New(prunedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if e.Thresholds() != nil {
		t.Fatal("thresholds before first seal")
	}
	enrollTestRefs(t, e, rng, 4)
	th := e.Thresholds()
	if len(th) != 16 {
		t.Fatalf("thresholds len %d, want 16", len(th))
	}
	if err := e.SetThresholds(th); err == nil {
		t.Fatal("SetThresholds accepted on a non-empty index")
	}

	e2, err := New(prunedConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.SetThresholds(th); err != nil {
		t.Fatal(err)
	}
	got := e2.Thresholds()
	for i := range th {
		if got[i] != th[i] {
			t.Fatalf("restored threshold %d = %g, want %g", i, got[i], th[i])
		}
	}
}
