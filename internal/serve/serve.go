// Package serve implements the continuous micro-batching admission layer
// in front of the search engine: concurrent single-query Search calls are
// coalesced — whatever has arrived within a bounded window, up to a
// configurable batch cap — into one multi-query GEMM pass, and the
// per-query results are demultiplexed back to the callers. This is the
// admit-concurrently/execute-batched shape that GPU similarity-search
// systems (Faiss) and modern inference servers use to turn many small
// GEMMs into a few large ones; here it is what lets the paper's Sec. 5.3
// query-batching trade-off be exercised by real concurrent traffic rather
// than only by pre-assembled batch requests.
//
// Determinism contract: coalescing changes only which queries share a
// GEMM pass, never a query's result — Engine.SearchBatch is pinned
// bitwise-identical to one-by-one execution, so the batcher inherits
// result determinism at any GOMAXPROCS and any admission schedule. What
// coalescing does change is virtual-time attribution: a batched query's
// simulated latency is its batch's completion time (the Sec. 5.3
// latency/throughput trade-off). The admission window itself is wall
// clock by nature (it paces real arrivals) and stays strictly outside
// the simulated clock, per DESIGN.md's two-clock contract.
package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: batcher closed")

// errShortBatch reports a runner that returned fewer results than queries.
var errShortBatch = errors.New("serve: runner returned short result batch")

// Runner executes one coalesced batch of queries and returns one result
// per query, in order. It is called by exactly one goroutine at a time.
type Runner[Q, R any] func(queries []Q) ([]R, error)

// Options configures a Batcher.
type Options struct {
	// MaxBatch caps how many queries coalesce into one execution
	// (values < 1 mean 1, i.e. no coalescing). It maps onto the paper's
	// query-batch-size ablation axis (Sec. 5.3): larger batches raise
	// GEMM efficiency and amortize PCIe streaming of host-resident
	// reference batches, at the cost of per-query latency.
	MaxBatch int
	// Window bounds how long the batch leader waits (wall clock) for the
	// batch to fill after it starts assembling one. 0 means greedy:
	// execute immediately with whatever has queued — arrivals during an
	// execution still coalesce into the next batch (continuous
	// batching), so under sustained concurrency batches fill without any
	// added admission delay.
	Window time.Duration
	// Observe, when non-nil, is called once per executed batch with the
	// achieved batch size (for metrics export). It must not block.
	Observe func(batchSize int)
}

// call is one in-flight query: its input, its result slot, and a reusable
// completion signal. Calls are pooled on a freelist so the steady-state
// submit/demux path allocates nothing.
type call[Q, R any] struct {
	query Q
	res   R
	err   error
	done  chan struct{} // buffered(1); reused across the pool
}

// Batcher coalesces concurrent Do calls into batched Runner executions.
// The zero value is not usable; construct with New.
//
// The batching discipline is leader-driven: the first submitter whose
// arrival finds no active leader becomes the leader, optionally waits up
// to Window for the batch to fill, executes, demultiplexes, and keeps
// draining the queue until it is empty before resigning. No background
// goroutine exists while the batcher is idle.
type Batcher[Q, R any] struct {
	run  Runner[Q, R]
	opts Options

	// mu owns queue, free, leading, closed, created, submitted and
	// batches. It is never held across the Runner or the Window wait.
	mu      sync.Mutex
	idle    sync.Cond // signaled when the leader resigns
	queue   []*call[Q, R]
	free    []*call[Q, R]
	leading bool
	closed  bool

	// full wakes a Window-waiting leader early when the queue reaches
	// MaxBatch (buffered(1); signaled outside mu, best-effort).
	full chan struct{}

	// Leader-only scatter buffers, reused across batches.
	batch   []*call[Q, R]
	queries []Q

	// created counts call objects ever allocated; when the batcher is
	// idle every one of them must sit on the freelist, which is the
	// leak/double-recycle invariant the edge-case tests pin.
	created uint64

	// Stats, guarded by mu.
	submitted uint64
	batches   uint64
}

// New builds a Batcher that executes coalesced batches with run.
func New[Q, R any](run Runner[Q, R], opts Options) *Batcher[Q, R] {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	if opts.Window < 0 {
		opts.Window = 0
	}
	b := &Batcher[Q, R]{
		run:     run,
		opts:    opts,
		full:    make(chan struct{}, 1),
		queue:   make([]*call[Q, R], 0, opts.MaxBatch),
		free:    make([]*call[Q, R], 0, opts.MaxBatch),
		batch:   make([]*call[Q, R], 0, opts.MaxBatch),
		queries: make([]Q, 0, opts.MaxBatch),
	}
	b.idle.L = &b.mu
	return b
}

// Do submits one query, waits for the coalesced execution it lands in,
// and returns its demultiplexed result. Safe for concurrent use.
func (b *Batcher[Q, R]) Do(query Q) (R, error) {
	c, lead, signal := b.submit(query)
	if c == nil {
		var zero R
		return zero, ErrClosed
	}
	if signal {
		// The queue just reached MaxBatch: wake a window-waiting leader
		// early (best-effort; a stale token only shortens one window).
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
	if lead {
		b.lead()
	}
	<-c.done
	res, err := c.res, c.err
	b.release(c)
	return res, err
}

// submit enqueues a call, electing the caller leader if none is active.
// It reports whether a window-waiting leader should be woken (the queue
// just filled to MaxBatch while someone else leads).
func (b *Batcher[Q, R]) submit(query Q) (c *call[Q, R], lead, signal bool) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, false, false
	}
	if n := len(b.free); n > 0 {
		c = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		c = &call[Q, R]{done: make(chan struct{}, 1)}
		b.created++
	}
	c.query = query
	if len(b.queue) == cap(b.queue) {
		grown := make([]*call[Q, R], len(b.queue), 2*cap(b.queue)+1)
		copy(grown, b.queue)
		b.queue = grown
	}
	b.queue = b.queue[:len(b.queue)+1]
	b.queue[len(b.queue)-1] = c
	b.submitted++
	if !b.leading {
		b.leading = true
		lead = true
	}
	signal = !lead && len(b.queue) >= b.opts.MaxBatch
	b.mu.Unlock()
	return c, lead, signal
}

// release returns a completed call to the freelist. The pooled call must
// not be touched afterwards: the freelist may reissue it to a concurrent
// Do immediately (poollife enforces this at every call site).
//
//texlint:freelist
func (b *Batcher[Q, R]) release(c *call[Q, R]) {
	var zeroQ Q
	var zeroR R
	c.query, c.res, c.err = zeroQ, zeroR, nil
	b.mu.Lock()
	if len(b.free) == cap(b.free) {
		grown := make([]*call[Q, R], len(b.free), 2*cap(b.free)+1)
		copy(grown, b.free)
		b.free = grown
	}
	b.free = b.free[:len(b.free)+1]
	b.free[len(b.free)-1] = c
	b.mu.Unlock()
}

// lead runs the batching loop: wait (bounded) for the batch to fill,
// collect up to MaxBatch queued calls, execute them as one batch, demux,
// and repeat until the queue drains.
func (b *Batcher[Q, R]) lead() {
	for {
		if b.opts.Window > 0 {
			b.mu.Lock()
			wait := len(b.queue) < b.opts.MaxBatch
			b.mu.Unlock()
			if wait {
				// Drain a stale fill token so the wait below reflects
				// this round's queue, then wait for fill or timeout.
				select {
				case <-b.full:
				default:
				}
				t := time.NewTimer(b.opts.Window)
				select {
				case <-b.full:
				case <-t.C:
				}
				t.Stop()
			}
		}

		b.mu.Lock()
		n := len(b.queue)
		if n == 0 {
			b.leading = false
			if b.closed {
				b.idle.Broadcast()
			}
			b.mu.Unlock()
			return
		}
		if n > b.opts.MaxBatch {
			n = b.opts.MaxBatch
		}
		b.batch = append(b.batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		for i := rest; i < len(b.queue); i++ {
			b.queue[i] = nil
		}
		b.queue = b.queue[:rest]
		b.queries = b.queries[:0]
		for _, c := range b.batch {
			b.queries = append(b.queries, c.query)
		}
		b.batches++
		b.mu.Unlock()

		// Execute with no lock held: submitters keep queueing into the
		// next batch while this one runs (continuous batching).
		results, err := b.run(b.queries)
		if err == nil && len(results) < n {
			err = errShortBatch
		}
		b.complete(b.batch, results, err)
		if b.opts.Observe != nil {
			b.opts.Observe(n)
		}

		// Avoid retaining caller data past the batch.
		var zeroQ Q
		for i := range b.queries {
			b.queries[i] = zeroQ
		}
	}
}

// complete demultiplexes one executed batch: each call gets its own
// result (or the shared error) and its waiter is woken. The done channel
// is buffered with exactly one waiter, so the send never blocks.
func (b *Batcher[Q, R]) complete(batch []*call[Q, R], results []R, err error) {
	for i, c := range batch {
		if err != nil {
			c.err = err
		} else {
			c.res = results[i]
		}
		c.done <- struct{}{}
	}
}

// Close rejects new submissions and waits for queued work to drain.
// Outstanding Do calls complete normally.
func (b *Batcher[Q, R]) Close() {
	b.mu.Lock()
	b.closed = true
	for b.leading {
		b.idle.Wait() // sync.Cond.Wait requires holding mu and releases it while parked
	}
	b.mu.Unlock()
}

// Stats is a point-in-time snapshot of the batcher's admission counters.
type Stats struct {
	// Submitted counts accepted queries; Batches counts coalesced
	// executions, so Submitted/Batches is the achieved mean batch size.
	Submitted uint64
	Batches   uint64
	MeanBatch float64
}

// Stats returns current admission counters.
func (b *Batcher[Q, R]) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{Submitted: b.submitted, Batches: b.batches}
	if b.batches > 0 {
		s.MeanBatch = float64(b.submitted) / float64(b.batches)
	}
	return s
}
