package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Hybrid is externally synchronized by design (the engine serializes all
// cache access under its own mutex). This stress test mirrors that usage:
// a mutex-guarded wrapper hammered from many goroutines, with the FIFO
// budget invariants checked on every observation. Under -race it verifies
// the locking discipline is sufficient; without it, that concurrent churn
// never corrupts the occupancy accounting.
func TestHybridConcurrentUnderLock(t *testing.T) {
	const gpuBudget, hostBudget, itemBytes = 8 * 64, 32 * 64, 64
	var mu sync.Mutex
	demoted := 0
	h := New[any](gpuBudget, hostBudget, func(*Item[any]) { demoted++ })

	checkInvariants := func(s Stats) error {
		if s.GPUUsed < 0 || s.GPUUsed > s.GPUBudget {
			return fmt.Errorf("GPU occupancy %d outside [0, %d]", s.GPUUsed, s.GPUBudget)
		}
		if s.HostUsed < 0 || s.HostUsed > s.HostBudget {
			return fmt.Errorf("host occupancy %d outside [0, %d]", s.HostUsed, s.HostBudget)
		}
		if int64(s.GPUItems)*itemBytes != s.GPUUsed || int64(s.HostItems)*itemBytes != s.HostUsed {
			return fmt.Errorf("item counts disagree with occupancy: %+v", s)
		}
		return nil
	}

	const workers, opsPer = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * opsPer
			for j := 0; j < opsPer; j++ {
				id := base + j
				mu.Lock()
				_, err := h.Add(id, itemBytes, nil)
				if err != nil && !errors.Is(err, ErrCapacity) {
					mu.Unlock()
					errs <- err
					return
				}
				if it := h.Get(id); err == nil && it == nil {
					mu.Unlock()
					errs <- fmt.Errorf("id %d missing right after Add", id)
					return
				}
				serr := checkInvariants(h.Stats())
				if j%3 == 0 {
					h.Remove(id)
				}
				mu.Unlock()
				if serr != nil {
					errs <- serr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if err := checkInvariants(h.Stats()); err != nil {
		t.Fatal(err)
	}
	if len(h.Items()) != len(h.items) {
		t.Fatalf("Items() returned %d entries, index holds %d", len(h.Items()), len(h.items))
	}
	if demoted == 0 {
		t.Fatal("expected FIFO demotions under GPU-budget pressure")
	}
}
