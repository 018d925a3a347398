package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/blas"
)

// gomaxprocsVariants is the GOMAXPROCS sweep the determinism tests run
// under: serial, minimal parallelism, and everything the machine has.
func gomaxprocsVariants() []int {
	vs := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		vs = append(vs, n)
	}
	return vs
}

// searchFixture builds a small populated engine plus a query that matches
// one of the enrolled references.
func searchFixture(t *testing.T, pruneC int) (*Engine, *blas.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	cfg := prunedConfig(pruneC)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var target *blas.Matrix
	for id := 0; id < 6; id++ {
		feats := unitFeatures(rng, cfg.Dim, cfg.RefFeatures)
		if id == 3 {
			target = feats
		}
		if err := e.Add(id, feats, nil); err != nil {
			t.Fatal(err)
		}
	}
	return e, queryFor(rng, target, testConfig().QueryFeatures, 0.05)
}

// TestSearchIdenticalAcrossGOMAXPROCS verifies that the whole search path —
// staging, GEMM, fused top-2 scan, scoring, ranking — returns identical
// reports at any worker count.
func TestSearchIdenticalAcrossGOMAXPROCS(t *testing.T) {
	e, q := searchFixture(t, 0)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var want *Report
	for _, procs := range gomaxprocsVariants() {
		runtime.GOMAXPROCS(procs)
		rep, err := e.Search(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		if rep.BestID != want.BestID || rep.Score != want.Score || rep.Accepted != want.Accepted {
			t.Fatalf("GOMAXPROCS=%d: decision (%d, %d, %v), want (%d, %d, %v)",
				procs, rep.BestID, rep.Score, rep.Accepted, want.BestID, want.Score, want.Accepted)
		}
		if len(rep.Ranked) != len(want.Ranked) {
			t.Fatalf("GOMAXPROCS=%d: %d ranked results, want %d", procs, len(rep.Ranked), len(want.Ranked))
		}
		for i, r := range rep.Ranked {
			if r != want.Ranked[i] {
				t.Fatalf("GOMAXPROCS=%d: ranked[%d] = %+v, want %+v", procs, i, r, want.Ranked[i])
			}
		}
	}
}

// TestSearchSteadyStateAllocs pins down the steady-state allocation budget
// of the search pass, per query, in every shape it takes: lone and batched,
// whole batches and pruned slot sets. After warm-up the knn scratch
// (distance matrix, top-2 slabs, query staging and panel buffers) and the
// prefilter scratch are reused, so what remains is the per-query Report, the
// escaping Ranked slice, and the per-pair correspondence slices built by the
// ratio test — a small constant independent of batch count. The bound has
// headroom for ratio-test append growth but fails loudly if per-batch matrix
// or slab allocation, or per-call query staging, is ever reintroduced
// (hundreds of allocs).
func TestSearchSteadyStateAllocs(t *testing.T) {
	for _, pruneC := range []int{0, 4} {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("C=%d/Bq=%d", pruneC, batch), func(t *testing.T) {
				e, q := searchFixture(t, pruneC)
				short := q.Slice(0, q.Cols-5) // padded through the slot's scratch when batched
				queries := []*blas.Matrix{q, short, q}[:batch]
				search := func() {
					var err error
					if batch == 1 {
						_, err = e.Search(q, nil)
					} else {
						_, err = e.SearchBatch(queries, nil)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				search()
				if allocs := testing.AllocsPerRun(10, search); allocs > float64(50*batch) {
					t.Fatalf("steady-state search does %.1f allocs/op for %d queries, want <= 50 per query", allocs, batch)
				}
			})
		}
	}
}
