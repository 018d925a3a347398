package cluster

import (
	"errors"
	"fmt"

	"texid/internal/engine"
	"texid/internal/faultsim"
)

// Coordinator→worker operation names. The fault injector keys per-call
// decisions on these, so they are part of the chaos-test contract.
const (
	opSearch      = "search"
	opSearchBatch = "searchbatch"
	opAdd         = "add"
)

// errShardDown is returned for calls the coordinator refuses to route
// because the target worker's failure detector says Dead.
var errShardDown = errors.New("cluster: shard marked dead")

// The coordinator→worker call policy. Durations are *virtual*
// microseconds on the workers' simulated clocks — the policy never reads
// wall time, which is what keeps chaos runs bit-reproducible.
const (
	// callDeadlineUS is the per-attempt deadline: 30 virtual seconds, an
	// order of magnitude above the largest paper-scale shard search. A
	// worker that has not answered within it (injected hang, latency
	// spike, lost reply) has failed that attempt.
	callDeadlineUS = 30e6
	// callAttempts bounds tries per logical call; faultsim.Backoff charges
	// the deterministic jittered wait before each retry.
	callAttempts = 3
)

// worker is the coordinator's handle on one shard: the engine, the fault
// transport (nil peer = fault-free direct calls), and the failure
// detector.
type worker struct {
	idx    int
	name   string
	eng    *engine.Engine
	peer   *faultsim.Peer // nil: direct, no fault seam
	health *healthFSM
}

// now reads the worker's virtual clock (the partition-window key).
func (w *worker) now() float64 { return w.eng.Device().Synchronize() }

// do routes one logical call to w: health gating, per-attempt deadline,
// and bounded retries with deterministic jittered backoff. invoke runs the
// real worker call and returns the virtual microseconds it consumed. The
// returned latency is coordinator-observed: injected latency, backoff
// waits, and billed deadlines all count.
//
// Genuine worker errors (as opposed to injected transport faults) are
// returned immediately without retrying and without charging the failure
// detector — a malformed query is not evidence the shard is unhealthy.
func (c *Cluster) do(w *worker, op string, invoke func() (float64, error)) (float64, error) {
	if !w.health.allow() {
		return 0, errShardDown
	}
	if w.peer == nil {
		// Fault-free serving: a direct in-process call that cannot time
		// out or be lost. Bit-identical to the pre-fault-layer path.
		el, err := invoke()
		if err != nil {
			return el, err
		}
		w.health.onSuccess()
		return el, nil
	}

	var total float64
	var lastErr error
	for attempt := 1; attempt <= callAttempts; attempt++ {
		if attempt > 1 {
			total += faultsim.Backoff(w.name, attempt)
			c.mWorkerRetries.Inc()
		}
		el, err := c.attempt(w, op, invoke)
		total += el
		if err == nil {
			return total, nil
		}
		if !faultsim.Injected(err) {
			return total, err
		}
		lastErr = err
		if errors.Is(err, faultsim.ErrPeerDown) {
			// Partitioned or killed: the peer's virtual clock cannot
			// advance while we spin, so retrying now cannot succeed.
			break
		}
	}
	return total, fmt.Errorf("cluster: %s on %s failed after retries: %w", op, w.name, lastErr)
}

// attempt makes one transport attempt and feeds the outcome to the
// worker's failure detector.
func (c *Cluster) attempt(w *worker, op string, invoke func() (float64, error)) (float64, error) {
	el, err := w.peer.Do(op, callDeadlineUS, w.now(), invoke)
	if err == nil {
		w.health.onSuccess()
		return el, nil
	}
	if faultsim.Injected(err) {
		c.mWorkerFailures.Inc()
		w.health.onFailure()
	}
	return el, err
}

// pickWorker returns the next enrollment target: round-robin over the
// workers, skipping any the failure detector has declared Dead. With every
// worker healthy this is the exact pre-fault-layer round-robin. The caller
// must hold c.mu.
func (c *Cluster) pickWorkerLocked() (int, error) {
	for tries := 0; tries < len(c.workers); tries++ {
		cand := c.next % len(c.workers)
		c.next++
		if c.workers[cand].health.State() != Dead {
			return cand, nil
		}
	}
	return -1, fmt.Errorf("cluster: all %d shards unavailable", len(c.workers))
}

// Health returns every worker's failure-detector state, indexed by worker.
func (c *Cluster) Health() []HealthState {
	out := make([]HealthState, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.health.State()
	}
	return out
}
