// Package cache implements the hybrid two-level feature cache of Sec. 6:
// GPU memory is the first-level cache and the much larger host memory the
// second level, managed FIFO — new reference batches enter GPU memory and
// the oldest GPU-resident batch is swapped out to the host when the GPU
// budget fills. The swap granularity is an entire batch, matching the
// batched GEMM layout. Host-resident batches are streamed to the device on
// every search (the engine overlaps those copies with compute using
// multiple streams).
package cache

import (
	"errors"
	"fmt"
)

// Location says which memory level currently holds a batch.
type Location int

const (
	OnGPU Location = iota
	OnHost
)

func (l Location) String() string {
	if l == OnGPU {
		return "gpu"
	}
	return "host"
}

// ErrCapacity is returned when neither level can hold a new batch.
var ErrCapacity = errors.New("cache: hybrid cache capacity exceeded")

// Item is one cached reference batch; Loc is the only record of which level
// holds it.
type Item[T any] struct {
	ID      int
	Bytes   int64
	Loc     Location
	Payload T
}

// Hybrid is the two-level FIFO cache. It tracks budgets and locations;
// the owner supplies an eviction callback that releases the batch's device
// memory when it is demoted to the host level.
type Hybrid[T any] struct {
	gpuBudget  int64
	hostBudget int64
	gpuUsed    int64
	hostUsed   int64
	gpuFIFO    []*Item[T] // oldest first
	order      []*Item[T] // insertion order of all items (stable iteration)
	items      map[int]*Item[T]
	onDemote   func(*Item[T])
}

// New creates a hybrid cache with the given per-level byte budgets.
// onDemote (may be nil) is invoked when an item moves from GPU to host.
func New[T any](gpuBudget, hostBudget int64, onDemote func(*Item[T])) *Hybrid[T] {
	return &Hybrid[T]{
		gpuBudget:  gpuBudget,
		hostBudget: hostBudget,
		items:      make(map[int]*Item[T]),
		onDemote:   onDemote,
	}
}

// Add enqueues a new batch. It is placed in GPU memory; if the GPU budget
// would overflow, the oldest GPU-resident batches are demoted to host
// memory first. Returns ErrCapacity when the batch fits in neither level.
func (h *Hybrid[T]) Add(id int, bytes int64, payload T) (*Item[T], error) {
	if _, dup := h.items[id]; dup {
		return nil, fmt.Errorf("cache: duplicate batch id %d", id)
	}
	if bytes > h.gpuBudget {
		return nil, fmt.Errorf("cache: batch of %d bytes exceeds the GPU budget %d", bytes, h.gpuBudget)
	}
	for h.gpuUsed+bytes > h.gpuBudget {
		if err := h.demoteOldest(); err != nil {
			return nil, err
		}
	}
	it := &Item[T]{ID: id, Bytes: bytes, Loc: OnGPU, Payload: payload}
	h.items[id] = it
	h.order = append(h.order, it)
	h.gpuFIFO = append(h.gpuFIFO, it)
	h.gpuUsed += bytes
	return it, nil
}

// demoteOldest moves the oldest GPU-resident batch to the host level.
func (h *Hybrid[T]) demoteOldest() error {
	if len(h.gpuFIFO) == 0 {
		return ErrCapacity
	}
	it := h.gpuFIFO[0]
	if h.hostUsed+it.Bytes > h.hostBudget {
		return ErrCapacity
	}
	h.gpuFIFO = h.gpuFIFO[1:]
	it.Loc = OnHost
	h.gpuUsed -= it.Bytes
	h.hostUsed += it.Bytes
	if h.onDemote != nil {
		h.onDemote(it)
	}
	return nil
}

// Remove deletes an item from the cache, returning its former location.
// Removing an unknown id is a no-op and returns false.
func (h *Hybrid[T]) Remove(id int) (Location, bool) {
	it, ok := h.items[id]
	if !ok {
		return 0, false
	}
	delete(h.items, id)
	h.order = removeItem(h.order, it)
	if it.Loc == OnGPU {
		h.gpuFIFO = removeItem(h.gpuFIFO, it)
		h.gpuUsed -= it.Bytes
	} else {
		h.hostUsed -= it.Bytes
	}
	return it.Loc, true
}

func removeItem[T any](s []*Item[T], it *Item[T]) []*Item[T] {
	for i, v := range s {
		if v == it {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Items returns all cached items in insertion order.
func (h *Hybrid[T]) Items() []*Item[T] { return append([]*Item[T](nil), h.order...) }

// AppendItems appends all cached items in insertion order to dst and
// returns the extended slice. Search loops pass a recycled buffer so the
// steady-state snapshot allocates nothing.
func (h *Hybrid[T]) AppendItems(dst []*Item[T]) []*Item[T] {
	return append(dst, h.order...)
}

// Stats summarizes cache occupancy.
type Stats struct {
	GPUUsed, GPUBudget   int64
	HostUsed, HostBudget int64
	GPUItems, HostItems  int
}

// Stats returns the current occupancy.
func (h *Hybrid[T]) Stats() Stats {
	s := Stats{
		GPUUsed: h.gpuUsed, GPUBudget: h.gpuBudget,
		HostUsed: h.hostUsed, HostBudget: h.hostBudget,
	}
	for _, it := range h.items {
		if it.Loc == OnGPU {
			s.GPUItems++
		} else {
			s.HostItems++
		}
	}
	return s
}

// CapacityBytes returns the total cache capacity across both levels — the
// paper's headline "5× larger memory capacity" is simply
// (GPU budget + host budget) / GPU budget.
func (h *Hybrid[T]) CapacityBytes() int64 { return h.gpuBudget + h.hostBudget }

// CapacityImages converts the total capacity to a number of reference
// images of the given per-image footprint.
func (h *Hybrid[T]) CapacityImages(bytesPerImage int64) int64 {
	if bytesPerImage <= 0 {
		return 0
	}
	return h.CapacityBytes() / bytesPerImage
}
