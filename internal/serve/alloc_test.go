package serve

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// allocsDuring returns the total heap allocations performed while f ran
// (all goroutines — the concurrent complement of AllocsPerRun).
func allocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestBatcherSubmitDemuxZeroAlloc pins the freelist contract the
// probe_serve_submit_demux row of BENCH_BASELINE.json gates: once the pool is warm, a sequential Do round
// trip (submit → wake → execute → demux → release) performs zero heap
// allocations. Any drift here fails tier-1, not just the opt-in bench.
func TestBatcherSubmitDemuxZeroAlloc(t *testing.T) {
	results := make([]int, 1)
	b := New(func(qs []int) ([]int, error) {
		results = results[:0]
		for _, q := range qs {
			results = append(results, q)
		}
		return results, nil
	}, Options{MaxBatch: 1})
	defer b.Close()

	// Warm the freelist and the runner's result buffer.
	if _, err := b.Do(1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := b.Do(2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm submit/demux does %.1f allocs/op, want 0", allocs)
	}
}

// TestEngineBatcherAllocsUnderChurn guards the serve hot path under a
// mixed serving workload: steady-state batched searches interleaved with
// enrollment churn (Update on a bounded id pool). The measured window
// covers the whole read+write interleaving; the bound is deliberately
// above the engine's own steady-state search cost (pinned separately at
// <= 50) but tight enough that a leak per op — or losing the call
// freelist — fails immediately.
func TestEngineBatcherAllocsUnderChurn(t *testing.T) {
	e, refs := testEngine(t, 8)
	rng := rand.New(rand.NewSource(17))
	qs := queries(rng, refs, 8, 32)
	fresh := unitFeatures(rng, 16, 24)

	eb := ForEngine(e, Options{MaxBatch: 4})
	defer eb.Close()

	// Warm: one search and one update so caches, freelists, and the
	// engine scratch reach steady state before measuring.
	if _, err := eb.Search(qs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(100, fresh, nil); err != nil {
		t.Fatal(err)
	}

	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		// One interleaved unit: three reads through the admission layer,
		// one churn write straight into the engine (the enrollment
		// write path).
		for k := 0; k < 3; k++ {
			if _, err := eb.Search(qs[(i+k)%len(qs)], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Update(100+(i%4), fresh, nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// 3 searches (< 50 each when warm) + 1 Update (pending-buffer append,
	// tombstone, occasional seal). 400 gives seal amortization headroom
	// while still catching any per-op leak growth.
	if allocs > 400 {
		t.Fatalf("read+churn interleaving does %.1f allocs/unit, drifted above the pinned bound", allocs)
	}
}

// TestEngineBatcherConcurrentChurnBounded is the concurrent variant:
// AllocsPerRun cannot isolate goroutines, so this measures total process
// allocations across a fixed concurrent read+enroll workload and bounds
// the per-op mean. It catches catastrophic drift (a per-op leak on the
// demux or scatter path) that single-threaded pinning can miss.
func TestEngineBatcherConcurrentChurnBounded(t *testing.T) {
	e, refs := testEngine(t, 8)
	rng := rand.New(rand.NewSource(19))
	qs := queries(rng, refs, 16, 32)
	fresh := unitFeatures(rng, 16, 24)
	eb := ForEngine(e, Options{MaxBatch: 4})
	defer eb.Close()

	run := func(ops int) {
		var wg sync.WaitGroup
		for i := 0; i < ops; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%8 == 7 {
					if err := e.Update(100+(i%4), fresh, nil); err != nil {
						t.Errorf("update: %v", err)
					}
					return
				}
				if _, err := eb.Search(qs[i%len(qs)], nil); err != nil {
					t.Errorf("search: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
	run(64) // warm

	const ops = 512
	allocs := allocsDuring(func() { run(ops) })
	perOp := float64(allocs) / ops
	if perOp > 500 {
		t.Fatalf("concurrent read+churn averages %.0f allocs/op, drifted above the pinned bound", perOp)
	}
}
