package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/kvstore"
	"texid/internal/sift"
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
				if ok, err := c.Remove(id); !ok || err != nil {
					errs <- fmt.Errorf("churn id %d vanished before Remove (%v)", id, err)
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

// TestConcurrentAddSameID: put checks for a duplicate and enrolls the id in
// one critical section, so of several goroutines enrolling one id exactly
// one succeeds and exactly one shard ends up holding the texture — never
// two round-robin picks both enrolling it. Every Add seals a batch of one
// sizeable reference, which keeps the engine call long enough for the
// adders to overlap; check.sh runs this at -cpu 1,2,4.
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

// agreement checks, with no mutation in flight, that the coordinator's
// three records of "which ids exist" name exactly the same ids: the shard
// map, each engine's live references (on exactly the mapped worker), and
// the kvstore's tex:* keys — and that a search ranks each of them once. A
// ghost (on an engine but not in the map) fails every clause. It returns
// the mapped ids.
func agreement(t *testing.T, c *Cluster) []int {
	t.Helper()
	c.mu.Lock()
	shards := make(map[int]int, len(c.shards))
	for id, wi := range c.shards {
		shards[id] = wi
	}
	c.mu.Unlock()

	onEngines := 0
	for wi, w := range c.workers {
		err := w.eng.Export(func(id int, _ *blas.Matrix, _ []sift.Keypoint, _ []binq.Code) error {
			onEngines++
			if mapped, ok := shards[id]; !ok || mapped != wi {
				t.Errorf("worker %d holds id %d, shard map says %d (mapped=%v)", wi, id, mapped, ok)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if onEngines != len(shards) {
		t.Errorf("engines hold %d references, shard map %d ids", onEngines, len(shards))
	}

	keys, err := c.store.Keys("tex:*")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(shards) {
		t.Errorf("store holds %d records %v, shard map %d ids", len(keys), keys, len(shards))
	}
	stored := make(map[string]bool, len(keys))
	for _, k := range keys {
		stored[k] = true
	}
	for id := range shards {
		if !stored[storeKey(id)] {
			t.Errorf("shard map holds id %d, the store has no %s (keys %v)", id, storeKey(id), keys)
		}
	}

	rep, err := c.Search(unitFeatures(rand.New(rand.NewSource(1)), 16, 32), nil)
	if err != nil {
		t.Fatal(err)
	}
	ranked := make(map[int]bool, len(rep.Ranked))
	for _, m := range rep.Ranked {
		if ranked[m.RefID] {
			t.Errorf("search ranked id %d twice", m.RefID)
		}
		ranked[m.RefID] = true
		if _, ok := shards[m.RefID]; !ok {
			t.Errorf("search ranked id %d, which the shard map does not hold", m.RefID)
		}
	}
	if len(ranked) != len(shards) {
		t.Errorf("search ranked %d distinct ids, shard map holds %d", len(ranked), len(shards))
	}

	ids := make([]int, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	return ids
}

// TestConcurrentMutationsAgree is the agreement checker for the write path:
// seeded goroutines Add, Update and Remove the same few ids against a
// 3-worker cluster with a kvstore (one Rebalance and one Compact mid-run)
// beside a searcher, and whenever no mutation is in flight the shard map,
// the engines and the store must agree (see agreement). Before every
// mutation ran under c.mu, an Update or Remove overlapping another write of
// its id — the kvstore round-trip makes the window wide — left the id on an
// engine but out of the map: searchable, undeletable, re-addable as a
// duplicate.
//
// Unpaused searches only have to succeed: a scatter is not a cross-shard
// snapshot, so one that overlaps a Remove and re-Add (or a Rebalance) of an
// id may rightly see it on its old shard and on its new one. Every fourth
// search is therefore a checkpoint: it takes the write half of pause, which
// every mutation holds the read half of, and checks agreement exactly.
func TestConcurrentMutationsAgree(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := New(Config{Workers: 3, Engine: smallEngine(), StoreAddr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const ids, mutators, opsEach = 8, 3, 120
	rng := rand.New(rand.NewSource(72))
	feats := make([]*blas.Matrix, ids)
	for i := range feats {
		feats[i] = unitFeatures(rng, 16, 24)
	}
	query := queryFor(rng, feats[0], 32)
	// Pre-draw every mutator's plan: *rand.Rand is not goroutine-safe.
	type op struct{ kind, id int }
	plans := make([][]op, mutators)
	for g := range plans {
		for j := 0; j < opsEach; j++ {
			plans[g] = append(plans[g], op{rng.Intn(3), rng.Intn(ids)})
		}
	}

	var pause sync.RWMutex
	mutate := func(f func() error) {
		pause.RLock()
		defer pause.RUnlock()
		if err := f(); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j, o := range plans[g] {
				mutate(func() error {
					switch o.kind {
					case 0:
						if err := c.Add(o.id, feats[o.id], nil); err != nil && !errors.Is(err, errDuplicate) {
							return err
						}
					case 1:
						return c.Update(o.id, feats[o.id], nil)
					default:
						_, err := c.Remove(o.id)
						return err
					}
					return nil
				})
				switch {
				case g == 0 && j == opsEach/3:
					mutate(func() error { _, err := c.Rebalance(1); return err })
				case g == 1 && j == 2*opsEach/3:
					mutate(func() error { _, err := c.Compact(); return err })
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	for n := 1; !t.Failed(); n++ {
		select {
		case <-done:
			for _, id := range agreement(t, c) {
				if ok, err := c.Remove(id); !ok || err != nil {
					t.Errorf("mapped id %d could not be removed (%v)", id, err)
				}
			}
			if got := c.Stats().References; got != 0 {
				t.Fatalf("%d references left after removing every mapped id", got)
			}
			return
		default:
		}
		if n%4 == 0 {
			pause.Lock()
			agreement(t, c)
			pause.Unlock()
		} else if _, err := c.Search(query, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

// TestRebalanceTakesTheMutationLockFirst pins the coordinator's lock order,
// c.mu before any engine's mu. The test holds c.mu, as a put in flight
// would, and starts a Rebalance: it must wait for c.mu before it touches an
// engine, so the worker it drains keeps answering meanwhile. A Rebalance
// that exported first and took c.mu inside Export's visit would sit on that
// worker's write lock waiting for c.mu, and a put to the worker, which
// holds c.mu and waits for the engine, would deadlock against it.
func TestRebalanceTakesTheMutationLockFirst(t *testing.T) {
	c := smallCluster(t, 2)
	rng := rand.New(rand.NewSource(74))
	for id := 0; id < 4; id++ {
		if err := c.Add(id, unitFeatures(rng, 16, 24), nil); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	moved := make(chan error, 1)
	go func() {
		_, err := c.Rebalance(0)
		moved <- err
	}()
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; time.Sleep(time.Millisecond) {
		answered := make(chan struct{})
		go func() {
			_ = c.workers[0].eng.Stats()
			close(answered)
		}()
		select {
		case <-answered:
		case <-time.After(2 * time.Second):
			c.mu.Unlock()
			t.Fatal("Rebalance holds the draining worker's lock while it waits for c.mu")
		}
	}
	c.mu.Unlock()
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
}

// TestRefusedDeleteLeavesTheTextureServing: Remove is write-ahead like put.
// With the kvstore gone a DELETE is a 500 and changes nothing — answering
// 200 after dropping the id from the index would let the next restart's
// LoadFromStore resurrect a texture the caller was told is deleted.
func TestRefusedDeleteLeavesTheTextureServing(t *testing.T) {
	srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := New(Config{Workers: 2, Engine: smallEngine(), StoreAddr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(73))
	ref := unitFeatures(rng, 16, 24)
	if err := c.Add(4, ref, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	err = NewClient(ts.URL).doJSON("DELETE", "/v1/textures/4", nil, nil)
	if err == nil || !strings.Contains(err.Error(), ": 500 ") {
		t.Fatalf("DELETE with the store down: %v, want status 500", err)
	}
	rep, err := c.Search(queryFor(rng, ref, 32), nil)
	if err != nil || rep.BestID != 4 || !rep.Accepted {
		t.Fatalf("search after the refused delete: %+v, %v; want texture 4 accepted", rep, err)
	}
	if got := c.Stats().References; got != 1 {
		t.Fatalf("References = %d after the refused delete, want 1", got)
	}
	c.mu.Lock()
	_, mapped := c.shards[4]
	c.mu.Unlock()
	if !mapped {
		t.Fatal("the refused delete dropped id 4 from the shard map")
	}
}
