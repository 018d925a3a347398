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
// Each Batcher has one goroutine that owns the batching: callers only
// queue their query and wait for their own answer, and that goroutine
// forms the batches, runs them and hands the answers back. No caller ever
// runs a batch, so no caller's answer waits on a batch it is not in.
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
// per query, in order. Only the batcher's own goroutine calls it, one
// batch at a time. Nothing recovers a panic there: a Runner that panics
// ends the process.
type Runner[Q, R any] func(queries []Q) ([]R, error)

// Options configures a Batcher.
type Options struct {
	// MaxBatch caps how many queries coalesce into one execution
	// (values < 1 mean 1, i.e. no coalescing). It maps onto the paper's
	// query-batch-size ablation axis (Sec. 5.3): larger batches raise
	// GEMM efficiency and amortize PCIe streaming of host-resident
	// reference batches, at the cost of per-query latency.
	MaxBatch int
	// Window bounds how long the batcher's goroutine waits (wall clock)
	// for a partial batch to fill once its first query is queued; a full
	// batch runs at once. 0 or less means greedy: execute immediately
	// with whatever has queued — arrivals during an execution still
	// coalesce into the next batch (continuous batching), so under
	// sustained concurrency batches fill without any added admission
	// delay.
	Window time.Duration
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
// The zero value is not usable; construct with New, and Close it to end
// its goroutine.
//
// New starts the one goroutine that owns the batching (loop): it takes
// up to MaxBatch queued calls, waits at most Window for a partial batch
// to fill, runs the Runner with no lock held, and wakes each caller. Do
// only queues its call, wakes the loop and waits for its own answer.
type Batcher[Q, R any] struct {
	run  Runner[Q, R]
	opts Options

	// wake tells the loop the queue grew or Close was called
	// (buffered(1), best-effort: the loop re-reads the queue on every
	// wake, so a stale token costs one look and a token sent while one
	// is pending is not needed).
	wake chan struct{}
	// stopped is closed when the loop returns, which it does once Close
	// has been called and the queue is empty.
	stopped chan struct{}

	// mu owns queue, free, closed, created, submitted and batches. It is
	// never held across the Runner or the Window wait.
	mu     sync.Mutex
	queue  []*call[Q, R]
	free   []*call[Q, R]
	closed bool

	// created counts call objects ever allocated; when the batcher is
	// idle every one of them must sit on the freelist, which is the
	// leak/double-recycle invariant the edge-case tests pin.
	created uint64

	// Stats, guarded by mu.
	submitted uint64
	batches   uint64
}

// New builds a Batcher that executes coalesced batches with run, and
// starts its goroutine.
func New[Q, R any](run Runner[Q, R], opts Options) *Batcher[Q, R] {
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	b := &Batcher[Q, R]{
		run:     run,
		opts:    opts,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
		queue:   make([]*call[Q, R], 0, opts.MaxBatch),
		free:    make([]*call[Q, R], 0, opts.MaxBatch),
	}
	go b.loop()
	return b
}

// Do submits one query, waits for the coalesced execution it lands in,
// and returns its demultiplexed result. Safe for concurrent use.
func (b *Batcher[Q, R]) Do(query Q) (R, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		var zero R
		return zero, ErrClosed
	}
	var c *call[Q, R]
	if n := len(b.free); n > 0 {
		c = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		c = &call[Q, R]{done: make(chan struct{}, 1)}
		b.created++
	}
	c.query = query
	b.queue = append(b.queue, c)
	b.submitted++
	b.mu.Unlock()
	b.notify()

	<-c.done
	res, err := c.res, c.err
	b.release(c)
	return res, err
}

// notify wakes the loop without blocking.
func (b *Batcher[Q, R]) notify() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// release returns a completed call to the freelist. The pooled call must
// not be touched afterwards: the freelist may reissue it to a concurrent
// Do immediately (TestBatcherReleaseReuse holds this under -race).
func (b *Batcher[Q, R]) release(c *call[Q, R]) {
	var zeroQ Q
	var zeroR R
	c.query, c.res, c.err = zeroQ, zeroR, nil
	b.mu.Lock()
	b.free = append(b.free, c)
	b.mu.Unlock()
}

// loop is the batcher's goroutine: it waits for a first queued call,
// gathers a partial batch for at most Window, executes up to MaxBatch
// calls as one batch and wakes each caller, until Close has been called
// and the queue is empty.
func (b *Batcher[Q, R]) loop() {
	defer close(b.stopped)
	batch := make([]*call[Q, R], 0, b.opts.MaxBatch)
	queries := make([]Q, 0, b.opts.MaxBatch)
	window := time.NewTimer(b.opts.Window) // armed per partial batch by gather
	if !window.Stop() {
		<-window.C
	}
	for {
		b.mu.Lock()
		for len(b.queue) == 0 {
			if b.closed {
				b.mu.Unlock()
				return
			}
			b.mu.Unlock()
			<-b.wake
			b.mu.Lock()
		}
		if b.opts.Window > 0 && len(b.queue) < b.opts.MaxBatch && !b.closed {
			b.mu.Unlock()
			b.gather(window)
			b.mu.Lock()
		}
		n := min(len(b.queue), b.opts.MaxBatch)
		batch = append(batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		b.batches++
		b.mu.Unlock()

		// Execute with no lock held: callers keep queueing into the next
		// batch while this one runs (continuous batching).
		queries = queries[:0]
		for _, c := range batch {
			queries = append(queries, c.query)
		}
		results, err := b.run(queries)
		if err == nil && len(results) < n {
			err = errShortBatch
		}
		// Demultiplex: each call gets its own result (or the shared
		// error). done is buffered with exactly one waiter, so the send
		// never blocks.
		for i, c := range batch {
			if err != nil {
				c.err = err
			} else {
				c.res = results[i]
			}
			c.done <- struct{}{}
		}
		clear(queries) // retain no caller data past the batch
	}
}

// gather waits until the queue holds MaxBatch calls, Close is called or
// the Window ends, whichever comes first. window is the loop's one timer,
// stopped and drained on entry and on return.
func (b *Batcher[Q, R]) gather(window *time.Timer) {
	window.Reset(b.opts.Window)
	for {
		select {
		case <-window.C:
			return
		case <-b.wake:
			b.mu.Lock()
			filled := len(b.queue) >= b.opts.MaxBatch || b.closed
			b.mu.Unlock()
			if filled {
				if !window.Stop() {
					<-window.C // fired but not received: drain it
				}
				return
			}
		}
	}
}

// Close rejects new submissions, waits for the queued work to drain and
// ends the batcher's goroutine. Outstanding Do calls complete normally.
func (b *Batcher[Q, R]) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.notify()
	<-b.stopped
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
