package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// testConfig is a small functional FP32 RootSIFT engine configuration.
func testConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 4
	cfg.Streams = 2
	cfg.Precision = gpusim.FP32
	cfg.Algorithm = knn.RootSIFT
	cfg.RefFeatures = 24
	cfg.QueryFeatures = 32
	cfg.Dim = 16
	cfg.HostCacheBytes = 1 << 30
	cfg.Match.MinMatches = 10
	return cfg
}

// unitFeatures builds a d×n matrix of random unit-norm non-negative
// columns (RootSIFT-like).
func unitFeatures(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var s float64
		for i := range col {
			col[i] = rng.Float32()
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(1 / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return m
}

// testEngine builds an engine with nRefs enrolled references and returns
// the reference feature matrices for deriving queries.
func testEngine(t *testing.T, nRefs int) (*engine.Engine, []*blas.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*blas.Matrix, nRefs)
	for i := range refs {
		refs[i] = unitFeatures(rng, cfg.Dim, cfg.RefFeatures)
		if err := e.Add(100+i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, refs
}

// queries derives n query feature matrices that hit distinct references.
func queries(rng *rand.Rand, refs []*blas.Matrix, n, queryFeats int) []*blas.Matrix {
	out := make([]*blas.Matrix, n)
	for i := range out {
		ref := refs[i%len(refs)]
		q := blas.NewMatrix(ref.Rows, queryFeats)
		for j := 0; j < queryFeats; j++ {
			src := ref.Col(j % ref.Cols)
			dst := q.Col(j)
			var s float64
			for k := range dst {
				dst[k] = src[k] + (rng.Float32()*2-1)*0.02
				if dst[k] < 0 {
					dst[k] = 0
				}
				s += float64(dst[k]) * float64(dst[k])
			}
			f := float32(1 / math.Sqrt(s))
			for k := range dst {
				dst[k] *= f
			}
		}
		out[i] = q
	}
	return out
}

// assertSameReport fails unless got and want agree on every
// result-bearing field (timing attribution is allowed to differ).
func assertSameReport(t *testing.T, label string, got, want *engine.Report) {
	t.Helper()
	if got.BestID != want.BestID || got.Score != want.Score || got.Accepted != want.Accepted ||
		got.Compared != want.Compared {
		t.Fatalf("%s: got (id=%d score=%d acc=%v cmp=%d), want (id=%d score=%d acc=%v cmp=%d)",
			label, got.BestID, got.Score, got.Accepted, got.Compared,
			want.BestID, want.Score, want.Accepted, want.Compared)
	}
	if len(got.Ranked) != len(want.Ranked) {
		t.Fatalf("%s: ranked length %d, want %d", label, len(got.Ranked), len(want.Ranked))
	}
	for i := range got.Ranked {
		if got.Ranked[i] != want.Ranked[i] {
			t.Fatalf("%s: ranked[%d] = %+v, want %+v", label, i, got.Ranked[i], want.Ranked[i])
		}
	}
}

// TestBatcherMatchesSequentialSearches is the core identity contract: N
// concurrent searches through the admission layer return results
// identical to sequential single-query searches, across GOMAXPROCS and
// admission windows (run under -race by scripts/check.sh).
func TestBatcherMatchesSequentialSearches(t *testing.T) {
	const nQueries = 24
	e, refs := testEngine(t, 8)
	qs := queries(rand.New(rand.NewSource(11)), refs, nQueries, 32)

	// Ground truth: sequential single-query searches.
	want := make([]*engine.Report, nQueries)
	for i, q := range qs {
		rep, err := e.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		for _, window := range []time.Duration{0, 200 * time.Microsecond, 5 * time.Millisecond} {
			t.Run(fmt.Sprintf("procs=%d/window=%v", procs, window), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				eb := ForEngine(e, Options{MaxBatch: 8, Window: window})
				defer eb.Close()

				got := make([]*engine.Report, nQueries)
				errs := make([]error, nQueries)
				var wg sync.WaitGroup
				for i := range qs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got[i], errs[i] = eb.Search(qs[i], nil)
					}(i)
				}
				wg.Wait()
				for i := range qs {
					if errs[i] != nil {
						t.Fatalf("query %d: %v", i, errs[i])
					}
					assertSameReport(t, fmt.Sprintf("query %d", i), got[i], want[i])
				}
			})
		}
	}
}

// TestBatcherCoalesces verifies that concurrent submissions actually
// share GEMM passes rather than degenerating to one batch per query.
func TestBatcherCoalesces(t *testing.T) {
	e, refs := testEngine(t, 4)
	qs := queries(rand.New(rand.NewSource(13)), refs, 16, 32)

	// A generous window plus MaxBatch = number of in-flight queries
	// forces full coalescing: the leader waits until everyone arrives.
	eb := ForEngine(e, Options{MaxBatch: 16, Window: time.Second})
	defer eb.Close()

	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eb.Search(qs[i], nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	st := eb.Stats()
	if st.Submitted != 16 {
		t.Fatalf("submitted %d, want 16", st.Submitted)
	}
	// The first arrival may lead a batch alone only if the runner starts
	// before the rest queue; the window makes that overwhelmingly
	// unlikely, but accept any real coalescing.
	if st.Batches >= st.Submitted {
		t.Fatalf("no coalescing: %d batches for %d queries", st.Batches, st.Submitted)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f, want > 1", st.MeanBatch)
	}
}

// TestBatcherRespectsMaxBatch pins the admission cap: the runner never
// sees more than MaxBatch queries, and every query runs once.
func TestBatcherRespectsMaxBatch(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := New(func(qs []int) ([]int, error) {
		mu.Lock()
		sizes = append(sizes, len(qs))
		mu.Unlock()
		return qs, nil
	}, Options{MaxBatch: 4, Window: 50 * time.Millisecond})
	defer b.Close()

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := b.Do(i); err != nil || got != i {
				t.Errorf("query %d: got %d, %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, size := range sizes {
		if size < 1 || size > 4 {
			t.Fatalf("achieved batch size %d outside [1, 4]", size)
		}
		total += size
	}
	if total != n {
		t.Fatalf("observed %d queries across batches, want %d", total, n)
	}
}

// TestBatcherErrorIsolation: a malformed query co-batched with valid
// ones fails alone; the valid queries still get their results.
func TestBatcherErrorIsolation(t *testing.T) {
	e, refs := testEngine(t, 4)
	good := queries(rand.New(rand.NewSource(19)), refs, 2, 32)
	bad := blas.NewMatrix(7, 32) // wrong dim

	want0, err := e.Search(good[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := e.Search(good[1], nil)
	if err != nil {
		t.Fatal(err)
	}

	eb := ForEngine(e, Options{MaxBatch: 3, Window: time.Second})
	defer eb.Close()

	var wg sync.WaitGroup
	var reps [3]*engine.Report
	var errs [3]error
	inputs := []*blas.Matrix{good[0], bad, good[1]}
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = eb.Search(inputs[i], nil)
		}(i)
	}
	wg.Wait()

	if errs[1] == nil {
		t.Fatal("malformed query did not error")
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid queries poisoned by co-batched error: %v, %v", errs[0], errs[2])
	}
	assertSameReport(t, "query 0", reps[0], want0)
	assertSameReport(t, "query 2", reps[2], want1)
}

// TestBatcherClose: Close drains queued work and subsequent submissions
// are rejected.
func TestBatcherClose(t *testing.T) {
	e, refs := testEngine(t, 4)
	qs := queries(rand.New(rand.NewSource(23)), refs, 4, 32)

	eb := ForEngine(e, Options{MaxBatch: 4})
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eb.Search(qs[i], nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	eb.Close()
	if _, err := eb.Search(qs[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close: %v, want ErrClosed", err)
	}
}

// TestBatcherShortRunner: a runner that under-returns fails every waiter
// in the batch instead of deadlocking or misattributing results.
func TestBatcherShortRunner(t *testing.T) {
	b := New(func(qs []int) ([]int, error) {
		return make([]int, len(qs)-1), nil
	}, Options{MaxBatch: 4, Window: time.Second})
	defer b.Close()

	var wg sync.WaitGroup
	var errs [2]error
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Do(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d: no error from short runner", i)
		}
	}
}

// TestBatcherPassThrough: MaxBatch 1 degenerates to serialized
// single-query execution but stays correct.
func TestBatcherPassThrough(t *testing.T) {
	e, refs := testEngine(t, 4)
	qs := queries(rand.New(rand.NewSource(29)), refs, 4, 32)
	want := make([]*engine.Report, len(qs))
	for i, q := range qs {
		rep, err := e.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep
	}

	eb := ForEngine(e, Options{MaxBatch: 1})
	defer eb.Close()
	for i, q := range qs {
		rep, err := eb.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameReport(t, fmt.Sprintf("query %d", i), rep, want[i])
	}
	st := eb.Stats()
	if st.Submitted != 4 || st.Batches != 4 {
		t.Fatalf("pass-through stats: %+v", st)
	}
}

// TestBatcherPhantomQueries: all-phantom coalesced batches run the
// timing-only SearchBatch path (the serving benchmark depends on this).
func TestBatcherPhantomQueries(t *testing.T) {
	cfg := testConfig()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPhantom(0, 16); err != nil {
		t.Fatal(err)
	}
	eb := ForEngine(e, Options{MaxBatch: 8, Window: time.Second})
	defer eb.Close()

	var wg sync.WaitGroup
	var reps [8]*engine.Report
	var errs [8]error
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = eb.Search(nil, nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("phantom %d: %v", i, errs[i])
		}
		if reps[i].Compared != 16 {
			t.Fatalf("phantom %d compared %d references, want 16", i, reps[i].Compared)
		}
	}
	if st := eb.Stats(); st.Batches >= st.Submitted {
		t.Fatalf("phantoms did not coalesce: %+v", st)
	}
}
