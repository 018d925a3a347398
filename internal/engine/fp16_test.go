package engine

import (
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
)

// fp16TestConfig is testConfig in FP16 with FP16 accumulation: references
// stored as binary16 and widened into engine scratch on every match.
func fp16TestConfig() Config {
	cfg := testConfig()
	cfg.Precision = gpusim.FP16
	cfg.Accum = blas.AccumFP16
	return cfg
}

// TestSearchFP16ScoreStability: repeated identical FP16 searches must
// return identical rankings — the staging scratch is reused across batches
// and searches, and nothing of one match may leak into the next.
func TestSearchFP16ScoreStability(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e, err := New(fp16TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*blas.Matrix, 9) // two full batches + one pending ref
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := e.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	q := queryFor(rng, refs[4], 32, 0.02)
	first, err := e.Search(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.BestID != 4 || !first.Accepted {
		t.Fatalf("FP16 search missed the enrolled reference: %+v", first)
	}
	for pass := 0; pass < 3; pass++ {
		rep, err := e.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Ranked) != len(first.Ranked) {
			t.Fatalf("pass %d: ranked %d candidates, first search %d", pass, len(rep.Ranked), len(first.Ranked))
		}
		for i := range rep.Ranked {
			if rep.Ranked[i] != first.Ranked[i] {
				t.Fatalf("pass %d: ranking diverged at %d: %+v vs %+v — reused staging served different bits",
					pass, i, rep.Ranked[i], first.Ranked[i])
			}
		}
	}
}

// TestSearchFP16ScoresAcrossUpdateAndCompact drives the index write paths
// under FP16: Update must make the new features (and only them) match, and
// Remove+Compact re-enrolls the survivors into new batches without moving
// any survivor's score.
func TestSearchFP16ScoresAcrossUpdateAndCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	e, err := New(fp16TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*blas.Matrix, 8)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := e.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Search(queryFor(rng, refs[2], 32, 0.02), nil); err != nil {
		t.Fatal(err)
	}

	// Update: a search must see the new features, not the old ones.
	newRef := unitFeatures(rng, 16, 24)
	if err := e.Update(2, newRef, nil); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Search(queryFor(rng, refs[2], 32, 0.02), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted && rep.BestID == 2 {
		t.Fatal("old features still matched after Update")
	}
	rep, err = e.Search(queryFor(rng, newRef, 32, 0.02), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestID != 2 || !rep.Accepted {
		t.Fatalf("updated features not found under FP16: %+v", rep)
	}

	// Remove + Compact: the re-enrolled survivors must still match — with
	// the same per-reference scores as before compaction, since each
	// reference's rounding chains are independent of batch grouping.
	q5 := queryFor(rng, refs[5], 32, 0.02)
	before, err := e.Search(q5, nil)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[int]int{}
	for _, r := range before.Ranked {
		scores[r.RefID] = r.Score
	}
	if !e.Remove(0) {
		t.Fatal("Remove(0) failed")
	}
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := e.Search(q5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.BestID != 5 || !after.Accepted {
		t.Fatalf("reference lost after FP16 compaction: %+v", after)
	}
	if len(after.Ranked) != len(before.Ranked)-1 {
		t.Fatalf("compacted index ranks %d candidates, want %d", len(after.Ranked), len(before.Ranked)-1)
	}
	for _, r := range after.Ranked {
		if want, ok := scores[r.RefID]; !ok || want != r.Score {
			t.Fatalf("score for ref %d changed across compaction: got %d, want %d",
				r.RefID, r.Score, scores[r.RefID])
		}
	}
}

// TestFP16HeapPerReference: an FP16 index costs the Go heap what rb.Bytes()
// says it costs. After enrolling, searching once and collecting, live-heap
// growth per reference stays within 1.3× of the binary16 payload plus the
// prefilter codes (no keypoints are enrolled) — the engine keeps no widened
// copy of a reference beyond the per-search scratch.
func TestFP16HeapPerReference(t *testing.T) {
	const refs, m, d = 128, 128, 128
	cfg := fp16TestConfig()
	cfg.BatchSize = 16
	cfg.RefFeatures, cfg.QueryFeatures, cfg.Dim = m, m, d
	cfg.PruneC = 4

	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	rng := rand.New(rand.NewSource(23))
	q := unitFeatures(rng, d, m)
	before := liveHeap()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < refs; i++ {
		if err := e.Add(i, unitFeatures(rng, d, m), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Search(q, nil); err != nil {
		t.Fatal(err)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(e)

	perRef := float64(grown) / refs
	budget := 1.3 * float64(m*d*2+m*binq.Bytes)
	t.Logf("live heap grew %.1f KiB per FP16 reference (budget %.1f KiB)", perRef/1024, budget/1024)
	if perRef > budget {
		t.Fatalf("live heap grew %.0f bytes per FP16 reference, want at most %.0f (1.3 × payload+codes)", perRef, budget)
	}
}
