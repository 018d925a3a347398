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

// CallPolicy tunes per-call deadlines, retries, backoff, and hedging for
// coordinator→worker calls. All durations are *virtual* microseconds on
// the workers' simulated clocks — the policy never reads wall time, which
// is what keeps chaos runs bit-reproducible. The zero value is replaced by
// DefaultCallPolicy.
type CallPolicy struct {
	// DeadlineUS is the per-attempt deadline. A worker that has not
	// answered within it (injected hang, latency spike, lost reply) is
	// treated as failed for that attempt. <= 0 selects the default.
	DeadlineUS float64
	// MaxAttempts bounds tries per logical call (1 = no retries).
	MaxAttempts int
	// BackoffUS is the base backoff charged before the first retry; it
	// doubles per attempt and carries deterministic jitter in [0.5, 1.5)
	// (faultsim.Backoff).
	BackoffUS float64
	// HedgeAfterUS, when > 0, issues a duplicate ("hedged") request once
	// the primary has been outstanding that long, and takes whichever
	// answer lands first — the classic tail-latency cut for stragglers.
	// 0 disables hedging.
	HedgeAfterUS float64
	// Seed keys the deterministic backoff jitter.
	Seed int64
}

// DefaultCallPolicy is the production serving policy: a generous 30
// virtual seconds per attempt (an order of magnitude above the largest
// paper-scale shard search), three attempts, 5 ms base backoff, hedging
// off.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{DeadlineUS: 30e6, MaxAttempts: 3, BackoffUS: 5000, Seed: 1}
}

// withDefaults fills zero fields from DefaultCallPolicy.
func (p CallPolicy) withDefaults() CallPolicy {
	def := DefaultCallPolicy()
	if p.DeadlineUS <= 0 {
		p.DeadlineUS = def.DeadlineUS
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BackoffUS <= 0 {
		p.BackoffUS = def.BackoffUS
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	return p
}

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

// do routes one logical call to w under the cluster's call policy: health
// gating, per-attempt deadline, bounded retries with deterministic
// jittered backoff, and hedged requests for stragglers. invoke runs the
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

	pol := c.call
	var total float64
	var lastErr error
	for attempt := 1; attempt <= pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			total += faultsim.Backoff(pol.Seed, w.name, attempt, pol.BackoffUS)
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

// attempt makes one transport attempt, hedging stragglers when the policy
// asks for it, and feeds the outcome to the worker's failure detector.
func (c *Cluster) attempt(w *worker, op string, invoke func() (float64, error)) (float64, error) {
	pol := c.call
	el, err := w.peer.Do(op, pol.DeadlineUS, w.now(), invoke)
	if err == nil {
		if pol.HedgeAfterUS > 0 && el > pol.HedgeAfterUS {
			// The primary straggled past the hedge threshold: a duplicate
			// issued at that point may have answered first.
			c.mWorkerHedges.Inc()
			if hel, herr := w.peer.Do(op, pol.DeadlineUS, w.now(), invoke); herr == nil && pol.HedgeAfterUS+hel < el {
				el = pol.HedgeAfterUS + hel
			}
		}
		w.health.onSuccess()
		return el, nil
	}
	if !faultsim.Injected(err) {
		return el, err
	}
	c.mWorkerFailures.Inc()
	w.health.onFailure()
	// Timeout-shaped failures get one hedge before the attempt is charged:
	// the duplicate went out at the hedge threshold, well inside the
	// primary's deadline window.
	if pol.HedgeAfterUS > 0 && (errors.Is(err, faultsim.ErrDeadline) || errors.Is(err, faultsim.ErrReplyLost)) {
		c.mWorkerHedges.Inc()
		hel, herr := w.peer.Do(op, pol.DeadlineUS, w.now(), invoke)
		if herr == nil {
			w.health.onSuccess()
			if hedged := pol.HedgeAfterUS + hel; hedged < el {
				el = hedged
			}
			return el, nil
		}
		if faultsim.Injected(herr) {
			c.mWorkerFailures.Inc()
			w.health.onFailure()
		}
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
