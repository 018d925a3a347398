package serve

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// checkFreelist pins the poollife contract at runtime: with no Do in
// flight, every call object ever created is on the freelist exactly once
// (no leaks), no pointer appears twice (no double recycle), and the
// queue is empty.
func checkFreelist[Q, R any](t *testing.T, b *Batcher[Q, R]) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queue) != 0 {
		t.Fatalf("queue holds %d calls while idle", len(b.queue))
	}
	seen := make(map[*call[Q, R]]bool, len(b.free))
	for i, c := range b.free {
		if c == nil {
			t.Fatalf("nil slot %d on the freelist", i)
		}
		if seen[c] {
			t.Fatalf("call %p recycled twice onto the freelist", c)
		}
		seen[c] = true
	}
	if uint64(len(b.free)) != b.created {
		t.Fatalf("freelist holds %d of %d created calls (leak)", len(b.free), b.created)
	}
}

// TestBatcherEdgeMaxBatchOne pins the no-coalescing degenerate case:
// every Do is its own batch, results demux correctly, and sequential use
// cycles one single pooled call.
func TestBatcherEdgeMaxBatchOne(t *testing.T) {
	var mu sync.Mutex
	batches := 0
	b := New(func(qs []int) ([]int, error) {
		mu.Lock()
		batches++
		mu.Unlock()
		if len(qs) != 1 {
			t.Errorf("MaxBatch=1 executed a batch of %d", len(qs))
		}
		return []int{qs[0] * 10}, nil
	}, Options{MaxBatch: 1})
	defer b.Close()

	for i := 0; i < 100; i++ {
		got, err := b.Do(i)
		if err != nil || got != i*10 {
			t.Fatalf("Do(%d) = %d, %v", i, got, err)
		}
	}
	mu.Lock()
	if batches != 100 {
		t.Fatalf("%d batches for 100 sequential Dos", batches)
	}
	mu.Unlock()
	checkFreelist(t, b)
	b.mu.Lock()
	if b.created != 1 {
		t.Fatalf("sequential MaxBatch=1 allocated %d calls, want 1 recycled forever", b.created)
	}
	b.mu.Unlock()
}

// TestBatcherEdgeWindowZero pins greedy mode under concurrency: no
// admission delay is added, every result demuxes to its submitter, and
// the freelist ends exactly balanced.
func TestBatcherEdgeWindowZero(t *testing.T) {
	b := New(func(qs []int) ([]int, error) {
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = q + 1000
		}
		// A short stall lets later submitters coalesce (continuous
		// batching) without a window.
		time.Sleep(200 * time.Microsecond)
		return out, nil
	}, Options{MaxBatch: 8, Window: 0})
	defer b.Close()

	// A scrape runs first, and the submits below follow it with only mu
	// between them: under -race, a counter read outside mu races them.
	// The sleep only lets the scrape go first; waiting on its result would
	// order it before the submits and hide the race.
	scraped := make(chan Stats, 1)
	go func() { scraped <- b.Stats() }()
	time.Sleep(10 * time.Millisecond)

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := b.Do(i)
			if err == nil && got != i+1000 {
				err = errors.New("demuxed wrong result")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	<-scraped
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Do(%d): %v", i, err)
		}
	}
	st := b.Stats()
	if st.Submitted != n || st.Batches == 0 || st.Batches > n {
		t.Fatalf("stats off: %+v", st)
	}
	checkFreelist(t, b)
}

// TestBatcherEdgeCloseMidGather cancels the leader's gather from the
// outside: Close lands while a leader is still waiting out its window.
// The in-flight query must complete normally (Close drains, never
// drops), later submissions must fail ErrClosed, and no pooled call may
// leak or double-recycle.
func TestBatcherEdgeCloseMidGather(t *testing.T) {
	ran := make(chan int, 1)
	b := New(func(qs []int) ([]int, error) {
		ran <- len(qs)
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = -q
		}
		return out, nil
	}, Options{MaxBatch: 64, Window: 50 * time.Millisecond})

	done := make(chan error, 1)
	go func() {
		got, err := b.Do(5)
		if err == nil && got != -5 {
			err = errors.New("demuxed wrong result")
		}
		done <- err
	}()
	// Wait until the Do above has become the window-waiting leader.
	deadline := time.Now().Add(time.Second)
	for {
		b.mu.Lock()
		leading := b.leading
		b.mu.Unlock()
		if leading {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never started gathering")
		}
		time.Sleep(100 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()

	if err := <-done; err != nil {
		t.Fatalf("query dropped by Close mid-gather: %v", err)
	}
	select {
	case n := <-ran:
		if n != 1 {
			t.Fatalf("gathered batch of %d, want the lone leader", n)
		}
	default:
		t.Fatal("runner never executed the gathered batch")
	}
	<-closed
	if _, err := b.Do(6); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	checkFreelist(t, b)
}

// TestBatcherEdgeAllError pins the shared-error demux path: when the
// runner fails the whole batch, every caller gets the error, and every
// pooled call still returns to the freelist exactly once.
func TestBatcherEdgeAllError(t *testing.T) {
	boom := errors.New("boom")
	b := New(func(qs []int) ([]int, error) {
		return nil, boom
	}, Options{MaxBatch: 8, Window: time.Millisecond})
	defer b.Close()

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Do(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("Do(%d) = %v, want the runner error", i, err)
		}
	}
	checkFreelist(t, b)
}

// TestBatcherEdgeShortBatchError pins the runner-contract guard: a runner
// returning fewer results than queries fails the whole batch with
// errShortBatch instead of demuxing garbage, and recycles cleanly.
func TestBatcherEdgeShortBatchError(t *testing.T) {
	b := New(func(qs []int) ([]int, error) {
		return make([]int, len(qs)/2), nil
	}, Options{MaxBatch: 4, Window: time.Millisecond})
	defer b.Close()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Do(i)
		}(i)
	}
	wg.Wait()
	short := 0
	for _, err := range errs {
		if errors.Is(err, errShortBatch) {
			short++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if short == 0 {
		t.Fatal("short runner result never surfaced errShortBatch")
	}
	checkFreelist(t, b)
}

// TestBatcherFreelistUnderChurn hammers the pool from concurrent
// submitters with randomized timing and verifies the balance sheet at
// the end: created == recycled, no duplicates — the runtime complement
// of the static poollife check.
func TestBatcherFreelistUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	delays := make([]time.Duration, 256)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	b := New(func(qs []int) ([]int, error) {
		out := make([]int, len(qs))
		copy(out, qs)
		return out, nil
	}, Options{MaxBatch: 4, Window: 100 * time.Microsecond})

	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(delays[i%len(delays)])
				if _, err := b.Do(i); err != nil {
					t.Errorf("Do: %v", err)
				}
			}(round*64 + i)
		}
		wg.Wait()
		checkFreelist(t, b)
	}
	b.Close()
	checkFreelist(t, b)
}

// TestBatcherMuNotHeldAcrossBlockingWaits parks the batcher inside each of
// its two blocking waits and shows a second caller of mu still returns: a
// Runner that does not finish until a concurrent Stats has returned, and a
// leader waiting out a Window it cannot fill alone. Holding mu across
// either would stall every submitter and scraper for a whole batch or
// window (the Runner case would never finish at all).
func TestBatcherMuNotHeldAcrossBlockingWaits(t *testing.T) {
	// returns reports whether f finished within the bound. It fails the
	// test with t.Errorf, not t.Fatalf, because the Runner row calls it
	// from the batch leader's goroutine, which must go on to release mu.
	returns := func(t *testing.T, what string, f func(), within time.Duration) bool {
		t.Helper()
		done := make(chan struct{})
		go func() {
			f()
			close(done)
		}()
		select {
		case <-done:
			return true
		case <-time.After(within):
			t.Errorf("%s blocked on mu", what)
			return false
		}
	}

	t.Run("Runner", func(t *testing.T) {
		var b *Batcher[int, int]
		b = New(func(qs []int) ([]int, error) {
			returns(t, "Stats during a Runner", func() { _ = b.Stats() }, 5*time.Second)
			return qs, nil
		}, Options{MaxBatch: 4})
		defer b.Close()
		returns(t, "Do", func() {
			if got, err := b.Do(7); err != nil || got != 7 {
				t.Errorf("Do(7) = %d, %v", got, err)
			}
		}, 10*time.Second)
	})

	t.Run("Window", func(t *testing.T) {
		const window = 2 * time.Second
		b := New(func(qs []int) ([]int, error) { return qs, nil },
			Options{MaxBatch: 2, Window: window})
		defer b.Close()
		first := make(chan error, 1)
		go func() {
			_, err := b.Do(1)
			first <- err
		}()
		// The first Do leads and waits out the Window for a second query.
		// Scrape throughout the leader's first 100ms: each Stats must
		// return long before the Window ends.
		for start := time.Now(); time.Since(start) < 100*time.Millisecond; time.Sleep(time.Millisecond) {
			if !returns(t, "Stats during the Window", func() { _ = b.Stats() }, window/4) {
				return
			}
		}
		// The second query fills the batch and wakes the leader early
		// (Close then waits out the leader's next, empty, Window).
		returns(t, "the batch", func() {
			if _, err := b.Do(2); err != nil {
				t.Error(err)
			}
			if err := <-first; err != nil {
				t.Error(err)
			}
		}, 2*window)
	})
}
