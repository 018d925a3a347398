package blas

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one persistent pool of compute workers instead of
// spawning goroutines on every kernel invocation. Work is expressed as a
// fixed list of blocks; workers (and the calling goroutine) pull block
// indices from a shared atomic counter, so scheduling decides only *who*
// runs a block, never *what* a block contains.
//
// Deterministic-parallelism contract: callers must partition work into
// blocks whose boundaries depend only on the problem shape — never on
// GOMAXPROCS or worker count — and every float reduction must stay inside
// a single block with a fixed traversal order. Under that rule the output
// is bitwise identical for any GOMAXPROCS, which is what the engine's
// reproducibility tests (TestSearchIdenticalAcrossGOMAXPROCS) demand.

type poolJob struct {
	next   atomic.Int64 // next block index to claim
	done   atomic.Int64 // blocks whose fn has returned
	blocks int
	fn     func(block int)
}

// runOne claims and runs a single block, reporting whether one was left.
func (job *poolJob) runOne() bool {
	b := int(job.next.Add(1)) - 1
	if b >= job.blocks {
		return false
	}
	job.fn(b)
	job.done.Add(1)
	return true
}

func (job *poolJob) drain() {
	for job.runOne() {
	}
}

var (
	poolOnce sync.Once
	poolCh   chan *poolJob
	poolSize int
)

func poolInit() {
	poolSize = runtime.NumCPU()
	poolCh = make(chan *poolJob, poolSize)
	for w := 0; w < poolSize; w++ {
		// Process-lifetime by design: one set of NumCPU workers parks on
		// poolCh forever so kernel launches never pay goroutine spawn, and
		// there is no shutdown path. The goroutine leak checks except
		// goroutines started here (poolWorker).
		go poolWorker()
	}
}

func poolWorker() {
	for job := range poolCh {
		job.drain()
	}
}

// Parallel runs fn(b) for every b in [0, blocks), distributing blocks over
// the persistent worker pool. Small jobs and GOMAXPROCS=1 run inline.
// The caller participates and, while waiting for stragglers, steals whole
// jobs from the pool queue instead of blocking — so nested Parallel calls
// (a batch extraction whose per-image work is itself parallel) cannot
// deadlock even with every worker busy. See the deterministic-parallelism
// contract above: fn must not care which goroutine runs which block.
func Parallel(blocks int, fn func(block int)) {
	if blocks <= 0 {
		return
	}
	if blocks == 1 || runtime.GOMAXPROCS(0) <= 1 {
		for b := 0; b < blocks; b++ {
			fn(b)
		}
		return
	}
	poolOnce.Do(poolInit)
	job := &poolJob{blocks: blocks, fn: fn}
	// Offer the job to at most blocks-1 workers without blocking: if the
	// pool queue is full the caller simply runs more blocks itself. A
	// worker that dequeues an already-exhausted job moves on immediately.
	offers := poolSize
	if offers > blocks-1 {
		offers = blocks - 1
	}
	for w := 0; w < offers; w++ {
		select {
		case poolCh <- job:
		default:
			offers = 0
		}
	}
	job.drain()
	// All blocks are claimed; wait for claimed blocks to finish. The
	// done counter is atomic, so observing done == blocks orders every
	// worker's writes before the caller's return.
	for job.done.Load() < int64(job.blocks) {
		select {
		case stolen := <-poolCh:
			stolen.drain()
		default:
			runtime.Gosched()
		}
	}
}
