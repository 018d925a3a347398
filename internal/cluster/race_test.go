package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"texid/internal/blas"
)

// TestClusterConcurrentMixedOps drives the coordinator the way the REST
// tier does: searches, enrollment churn (add/update/remove), and stats
// scrapes all at once. Run under -race this is the data-race gate for the
// serving path; functionally, searches for the stable population must
// keep resolving while unrelated ids churn.
func TestClusterConcurrentMixedOps(t *testing.T) {
	c := smallCluster(t, 3)
	rng := rand.New(rand.NewSource(70))

	const stable = 6
	refs := make([]*blas.Matrix, stable)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
		if err := c.Add(i, refs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-draw every random input: *rand.Rand is not goroutine-safe.
	queries := make([]*blas.Matrix, stable)
	for i := range queries {
		queries[i] = queryFor(rng, refs[i], 32)
	}
	const churners, churnOps = 2, 8
	churn := make([][]*blas.Matrix, churners)
	for g := range churn {
		churn[g] = make([]*blas.Matrix, churnOps)
		for j := range churn[g] {
			churn[g][j] = unitFeatures(rng, 16, 24)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, stable+churners+1)

	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				rep, err := c.Search(queries[i], nil)
				if err != nil {
					errs <- err
					return
				}
				if rep.BestID != i {
					errs <- fmt.Errorf("query %d resolved to %d during churn", i, rep.BestID)
					return
				}
			}
		}(i)
	}

	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 100 + g*churnOps
			for j := 0; j < churnOps; j++ {
				id := base + j
				if err := c.Add(id, churn[g][j], nil); err != nil {
					errs <- err
					return
				}
				if err := c.Update(id, churn[g][j], nil); err != nil {
					errs <- err
					return
				}
				if !c.Remove(id) {
					errs <- fmt.Errorf("churn id %d vanished before Remove", id)
					return
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 10; round++ {
			s := c.Stats()
			if s.Workers != 3 {
				errs <- fmt.Errorf("stats reported %d workers", s.Workers)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := c.Stats().References; got != stable {
		t.Fatalf("after churn drained, %d references remain, want %d", got, stable)
	}
}

// TestConcurrentAddSameID: Add checks for a duplicate and reserves the id in
// one critical section, so of several goroutines enrolling one id exactly
// one succeeds and exactly one shard ends up holding the texture — never
// two round-robin picks both enrolling it. Every Add seals a batch of one
// sizeable reference, which keeps the engine call long enough for the
// adders to overlap; check.sh runs this at -cpu 1,4.
func TestConcurrentAddSameID(t *testing.T) {
	const rounds, adders = 50, 4
	ecfg := smallEngine()
	ecfg.BatchSize = 1
	ecfg.Dim, ecfg.RefFeatures = 128, 256
	c, err := New(Config{Workers: 3, Engine: ecfg})
	if err != nil {
		t.Fatal(err)
	}
	feats := unitFeatures(rand.New(rand.NewSource(71)), ecfg.Dim, ecfg.RefFeatures)
	for id := 0; id < rounds; id++ {
		var wg sync.WaitGroup
		var won atomic.Int32
		start := make(chan struct{})
		for g := 0; g < adders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if c.Add(id, feats, nil) == nil {
					won.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := won.Load(); n != 1 {
			t.Fatalf("id %d: %d of %d concurrent Adds succeeded, want exactly 1", id, n, adders)
		}
		if got := c.Stats().References; got != id+1 {
			t.Fatalf("after id %d: shards hold %d references, want %d — an id is enrolled on two shards", id, got, id+1)
		}
	}
}
