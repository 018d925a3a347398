package cache

import (
	"testing"
	"testing/quick"
)

func TestAddStaysOnGPUWithinBudget(t *testing.T) {
	h := New[any](100, 1000, nil)
	for i := 0; i < 4; i++ {
		it, err := h.Add(i, 25, nil)
		if err != nil {
			t.Fatal(err)
		}
		if it.Loc != OnGPU {
			t.Fatalf("item %d on %v", i, it.Loc)
		}
	}
	s := h.Stats()
	if s.GPUUsed != 100 || s.GPUItems != 4 || s.HostItems != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFIFODemotion(t *testing.T) {
	demoted := []int{}
	h := New[any](100, 1000, func(it *Item[any]) { demoted = append(demoted, it.ID) })
	for i := 0; i < 6; i++ {
		if _, err := h.Add(i, 25, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Adding 6 items of 25 into a 100-byte GPU: items 0 and 1 demote, in
	// FIFO order.
	if len(demoted) != 2 || demoted[0] != 0 || demoted[1] != 1 {
		t.Fatalf("demotions %v, want [0 1]", demoted)
	}
	if h.Get(0).Loc != OnHost || h.Get(5).Loc != OnGPU {
		t.Fatal("locations wrong after demotion")
	}
	s := h.Stats()
	if s.GPUUsed != 100 || s.HostUsed != 50 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCapacityExceeded(t *testing.T) {
	h := New[any](50, 50, nil)
	if _, err := h.Add(0, 50, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Add(1, 50, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Add(2, 50, nil); err != ErrCapacity {
		t.Fatalf("want ErrCapacity, got %v", err)
	}
	// A single batch larger than the whole GPU is rejected outright.
	if _, err := h.Add(3, 51, nil); err == nil {
		t.Fatal("oversized batch must be rejected")
	}
}

func TestDuplicateID(t *testing.T) {
	h := New[any](100, 100, nil)
	h.Add(7, 10, nil)
	if _, err := h.Add(7, 10, nil); err == nil {
		t.Fatal("duplicate id must error")
	}
}

func TestRemove(t *testing.T) {
	h := New[any](50, 100, nil)
	h.Add(0, 25, nil)
	h.Add(1, 25, nil)
	h.Add(2, 25, nil) // demotes 0
	loc, ok := h.Remove(0)
	if !ok || loc != OnHost {
		t.Fatalf("Remove(0) = %v, %v", loc, ok)
	}
	loc, ok = h.Remove(2)
	if !ok || loc != OnGPU {
		t.Fatalf("Remove(2) = %v, %v", loc, ok)
	}
	if _, ok := h.Remove(99); ok {
		t.Fatal("removing unknown id should report false")
	}
	s := h.Stats()
	if s.GPUUsed != 25 || s.HostUsed != 0 {
		t.Fatalf("stats after removes %+v", s)
	}
	// Freed GPU space is reusable without demotion.
	if _, err := h.Add(3, 25, nil); err != nil {
		t.Fatal(err)
	}
	if h.Get(1).Loc != OnGPU {
		t.Fatal("item 1 should still be on GPU")
	}
}

func TestItemsInsertionOrder(t *testing.T) {
	h := New[any](1000, 1000, nil)
	for i := 0; i < 5; i++ {
		h.Add(i*10, 1, nil)
	}
	items := h.Items()
	for i, it := range items {
		if it.ID != i*10 {
			t.Fatalf("order[%d] = %d", i, it.ID)
		}
	}
}

func TestCapacityMath(t *testing.T) {
	// The paper's configuration: 16 GB GPU + 64 GB host = 5× capacity.
	gpu := int64(16) << 30
	host := int64(64) << 30
	h := New[any](gpu, host, nil)
	if h.CapacityBytes() != gpu+host {
		t.Fatal("capacity bytes wrong")
	}
	ratio := float64(h.CapacityBytes()) / float64(gpu)
	if ratio != 5 {
		t.Fatalf("hybrid/GPU capacity ratio = %g, want 5", ratio)
	}
	// FP16 768-feature matrices: 768·128·2 bytes each.
	per := int64(768 * 128 * 2)
	imgs := h.CapacityImages(per)
	if imgs < 420_000 || imgs > 440_000 {
		t.Fatalf("capacity %d images, want ~427k", imgs)
	}
	if h.CapacityImages(0) != 0 {
		t.Fatal("zero-byte image capacity must be 0")
	}
}

func TestPropertyInvariants(t *testing.T) {
	// Whatever the add/remove sequence, used bytes per level never exceed
	// budgets and GPU items sum to gpuUsed.
	f := func(ops []uint8) bool {
		h := New[any](64, 256, nil)
		id := 0
		live := map[int]bool{}
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				// remove an arbitrary live id
				for k := range live {
					h.Remove(k)
					delete(live, k)
					break
				}
			} else {
				sz := int64(op%32) + 1
				if _, err := h.Add(id, sz, nil); err == nil {
					live[id] = true
				}
				id++
			}
			s := h.Stats()
			if s.GPUUsed > s.GPUBudget || s.HostUsed > s.HostBudget || s.GPUUsed < 0 || s.HostUsed < 0 {
				return false
			}
			var gpuSum, hostSum int64
			for _, it := range h.Items() {
				if it.Loc == OnGPU {
					gpuSum += it.Bytes
				} else {
					hostSum += it.Bytes
				}
			}
			if gpuSum != s.GPUUsed || hostSum != s.HostUsed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Get returns the item with the given id, or nil.
func (h *Hybrid[T]) Get(id int) *Item[T] { return h.items[id] }
