package cluster

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"texid/internal/blas"
	"texid/internal/sift"
)

// TestSearchBatchScatterAllocs pins the allocation shape of the
// scatter-gather path probe_cluster_searchbatch_scatter gates: a warm 4-query SearchBatch
// across 3 shards (goroutine fan-out, per-shard batch reports, merged
// per-query reports). The coordinator path is deliberately outside the
// zero-alloc contract (see serve.go), but its per-call allocation count
// is still a code-shape invariant — growth here means a new allocation
// per query or per shard crept into the merge, which a long soak turns
// into GC pressure.
func TestSearchBatchScatterAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := smallCluster(t, 3)
	refs := make([]*blas.Matrix, 6)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*blas.Matrix{
		queryFor(rng, refs[0], 32), queryFor(rng, refs[1], 32),
		queryFor(rng, refs[2], 32), queryFor(rng, refs[3], 32),
	}
	kps := make([][]sift.Keypoint, len(batch))

	if _, err := c.SearchBatch(batch, kps); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.SearchBatch(batch, kps); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~560 on the current implementation (3 shard goroutines ×
	// per-shard engine batch state + 4 merged reports with ranked lists).
	// The bound leaves room for noise, not for a per-query regression.
	if allocs > 900 {
		t.Fatalf("SearchBatch scatter does %.0f allocs/call, drifted above the pinned bound", allocs)
	}
}

// TestSearchBatchAllocsUnderChurn interleaves enrollment churn with the
// scatter path inside the measured window — a mixed read/write workload
// as a single-threaded, exactly-pinnable unit.
func TestSearchBatchAllocsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	c := smallCluster(t, 3)
	refs := make([]*blas.Matrix, 6)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh := unitFeatures(rng, 16, 24)
	batch := []*blas.Matrix{queryFor(rng, refs[0], 32), queryFor(rng, refs[1], 32)}
	kps := make([][]sift.Keypoint, len(batch))

	if _, err := c.SearchBatch(batch, kps); err != nil {
		t.Fatal(err)
	}
	if err := c.Update(2, fresh, nil); err != nil {
		t.Fatal(err)
	}

	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := c.SearchBatch(batch, kps); err != nil {
			t.Fatal(err)
		}
		if err := c.Update(2+(i%4), fresh, nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// One 2-query scatter (~350) plus one Update (pending append +
	// occasional seal + tombstone bookkeeping).
	if allocs > 900 {
		t.Fatalf("scatter+churn unit does %.0f allocs, drifted above the pinned bound", allocs)
	}
}

// TestSearchBatchConcurrentChurnBounded runs reads and enrollment churn
// concurrently (the interleaving a serving process sees, which AllocsPerRun
// cannot pin exactly) and bounds the mean allocations per operation
// process-wide.
func TestSearchBatchConcurrentChurnBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := smallCluster(t, 3)
	refs := make([]*blas.Matrix, 6)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh := unitFeatures(rng, 16, 24)
	batch := []*blas.Matrix{queryFor(rng, refs[0], 32), queryFor(rng, refs[1], 32)}
	kps := make([][]sift.Keypoint, len(batch))

	run := func(ops int) {
		var wg sync.WaitGroup
		for i := 0; i < ops; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%8 == 7 {
					if err := c.Update(i%6, fresh, nil); err != nil {
						t.Errorf("update: %v", err)
					}
					return
				}
				if _, err := c.SearchBatch(batch, kps); err != nil {
					t.Errorf("batch: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
	run(32) // warm

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	const ops = 256
	run(ops)
	runtime.ReadMemStats(&m1)
	perOp := float64(m1.Mallocs-m0.Mallocs) / ops
	// Each read op is a full 2-query scatter (~350 single-threaded); the
	// bound flags a leak per op without tripping on scheduler noise.
	if perOp > 1500 {
		t.Fatalf("concurrent scatter+churn averages %.0f allocs/op, drifted above the pinned bound", perOp)
	}
}
