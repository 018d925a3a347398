package cluster

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"texid/internal/blas"
	"texid/internal/faultsim"
	"texid/internal/gpusim"
	"texid/internal/serve"
	"texid/internal/wire"
)

// serveOptions forces full coalescing in tests: every concurrent caller
// lands in one scatter pass (the window is far above any scheduling jitter).
func serveOptions(maxBatch int) serve.Options {
	return serve.Options{MaxBatch: maxBatch, Window: time.Second}
}

// TestClusterCoalescedMatchesSearch is the identity contract at the
// coordinator: N goroutines racing through the admission layer get reports
// bitwise identical (matches, scores, ranked lists) to sequential
// scatter-gather searches of the same queries.
func TestClusterCoalescedMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	c, err := New(Config{Workers: 3, Engine: smallEngine(), Serve: serveOptions(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	refs := make([]*blas.Matrix, 9)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	const n = 16
	queries := make([]*blas.Matrix, n)
	for i := range queries {
		queries[i] = queryFor(rng, refs[i%len(refs)], 32)
	}
	want := make([]*Report, n)
	for i, q := range queries {
		rep, err := c.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	got := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.SearchCoalesced(queries[i], nil)
		}(i)
	}
	wg.Wait()

	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		g, w := got[i], want[i]
		if g.BestID != w.BestID || g.Score != w.Score || g.Accepted != w.Accepted || g.Compared != w.Compared {
			t.Fatalf("query %d: coalesced (best=%d score=%d) != sequential (best=%d score=%d)",
				i, g.BestID, g.Score, w.BestID, w.Score)
		}
		if len(g.Ranked) != len(w.Ranked) {
			t.Fatalf("query %d: ranked %d vs %d entries", i, len(g.Ranked), len(w.Ranked))
		}
		for j := range g.Ranked {
			if g.Ranked[j] != w.Ranked[j] {
				t.Fatalf("query %d ranked[%d]: %+v != %+v", i, j, g.Ranked[j], w.Ranked[j])
			}
		}
	}
	st := c.ServeStats()
	if st.Submitted != n {
		t.Fatalf("submitted %d, want %d", st.Submitted, n)
	}
	if st.Batches >= st.Submitted {
		t.Fatalf("no coalescing: %d batches for %d searches", st.Batches, st.Submitted)
	}
}

// TestClusterCoalescedChaosPartial composes the admission layer with the
// fault injector: with one shard killed mid-stream, coalesced searches keep
// degrading gracefully — every demultiplexed report is Partial, covers the
// surviving shards, and still finds its target.
func TestClusterCoalescedChaosPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	refs := make([]*blas.Matrix, 6)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
	}
	adds := len(refs) / 3
	c, err := New(Config{
		Workers: 3, Engine: smallEngine(), Serve: serveOptions(4),
		fault: faultsim.New(faultsim.Plan{Seed: 72, Kill: map[string]uint64{workerName(2): uint64(adds) + 1}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, f := range refs {
		if err := c.Add(i, f, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Both targets live on surviving shards (round-robin: 0 -> worker-0,
	// 1 -> worker-1).
	const n = 4
	queries := make([]*blas.Matrix, n)
	for i := range queries {
		queries[i] = queryFor(rng, refs[i%2], 32)
	}
	reps := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = c.SearchCoalesced(queries[i], nil)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		rep := reps[i]
		if !rep.Partial || rep.ShardsAnswered != 2 || rep.ShardsTotal != 3 {
			t.Fatalf("search %d: partial=%v answered=%d/%d", i, rep.Partial, rep.ShardsAnswered, rep.ShardsTotal)
		}
		if rep.BestID != i%2 || !rep.Accepted {
			t.Fatalf("search %d lost its target on surviving shards: best=%d", i, rep.BestID)
		}
	}
}

// TestClusterCoalescedErrorIsolation pins the demux contract at the
// coordinator: a malformed query sharing a coalesced batch with valid ones
// fails alone.
func TestClusterCoalescedErrorIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	c, err := New(Config{Workers: 2, Engine: smallEngine(), Serve: serveOptions(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := unitFeatures(rng, 16, 24)
	if err := c.Add(0, ref, nil); err != nil {
		t.Fatal(err)
	}

	queries := []*blas.Matrix{
		queryFor(rng, ref, 32),
		unitFeatures(rng, 7, 32), // wrong dimension
		queryFor(rng, ref, 32),
	}
	reps := make([]*Report, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = c.SearchCoalesced(queries[i], nil)
		}(i)
	}
	wg.Wait()

	if errs[1] == nil {
		t.Fatal("wrong-dimension query accepted")
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("valid query %d poisoned by co-batched bad query: %v", i, errs[i])
		}
		if reps[i].BestID != 0 || !reps[i].Accepted {
			t.Fatalf("valid query %d: %+v", i, reps[i])
		}
	}
}

// TestServeStatsAndMetricsExposed covers the observability satellite: after
// traffic through the coalescing /v1/search path, /v1/stats carries latency
// quantiles and admission counters, and /metrics exposes the batch-size and
// wall-latency histograms.
func TestServeStatsAndMetricsExposed(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	c, err := New(Config{Workers: 2, Engine: smallEngine(), Serve: serveOptions(4)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	api := NewClient(ts.URL)

	ref := unitFeatures(rng, 16, 24)
	if err := api.Add(&wire.FeatureRecord{ID: 1, Precision: gpusim.FP32, Scale: 1, Features: ref}); err != nil {
		t.Fatal(err)
	}
	q := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: queryFor(rng, ref, 32)}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := api.Search(q); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st, err := api.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve.Submitted != 3 || st.Serve.Batches == 0 || st.Serve.MeanBatch < 1 {
		t.Fatalf("serve stats = %+v", st.Serve)
	}
	if st.WallLatency.Count != 3 || st.WallLatency.P99 <= 0 {
		t.Fatalf("wall latency = %+v", st.WallLatency)
	}
	if st.SimLatency.Count == 0 || st.SimLatency.P50 <= 0 {
		t.Fatalf("sim latency = %+v", st.SimLatency)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"texid_serve_batch_size_count",
		"texid_search_wall_latency_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}
