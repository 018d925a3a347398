package cluster

import "sync"

// HealthState is one worker's position in the coordinator's failure
// detector: healthy → suspect → dead → probing → healthy. Transitions are
// driven purely by call outcomes (never by wall-clock timers), so a fault
// schedule replays the same state trajectory on every run.
type HealthState int

const (
	// Healthy workers receive full traffic.
	Healthy HealthState = iota
	// Suspect workers have failed recently but are still routed to; the
	// state exists so operators (and tests) can see trouble building
	// before the detector declares death.
	Suspect
	// Dead workers are routed around: searches skip them (degrading to
	// partial results) and enrollment avoids them.
	Dead
	// Probing workers are dead workers being offered one trial call; a
	// success resurrects them, a failure sends them back to Dead.
	Probing
)

// String names the state for stats and logs.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Probing:
		return "probing"
	}
	return "unknown"
}

// HealthPolicy tunes the per-worker failure detector. The zero value is
// replaced by defaults (see withDefaults).
type HealthPolicy struct {
	// SuspectAfter consecutive call failures mark a worker Suspect.
	SuspectAfter int
	// DeadAfter consecutive call failures mark a worker Dead. Must be
	// >= SuspectAfter.
	DeadAfter int
	// ProbeEvery is the number of skipped calls after which a Dead worker
	// is offered one probe (counted in calls, not wall time, to preserve
	// determinism).
	ProbeEvery int
}

// withDefaults fills zero fields with the production defaults: one failure
// raises suspicion, three kill, and every fourth skipped call probes.
func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 1
	}
	if p.DeadAfter <= 0 {
		p.DeadAfter = 3
	}
	if p.DeadAfter < p.SuspectAfter {
		p.DeadAfter = p.SuspectAfter
	}
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = 4
	}
	return p
}

// healthFSM is one worker's failure detector. Its own mutex (not the
// coordinator's) keeps transitions atomic while scatter-gather calls run
// concurrently.
type healthFSM struct {
	pol HealthPolicy

	// mu owns state, fails and skipped; it is a leaf lock.
	mu      sync.Mutex
	state   HealthState
	fails   int // consecutive failures
	skipped int // calls skipped while Dead, counts toward the next probe
}

func newHealthFSM(pol HealthPolicy) *healthFSM {
	return &healthFSM{pol: pol.withDefaults()}
}

// allow reports whether the next call should be routed to the worker.
// Dead workers decline, except that every ProbeEvery-th declined call is
// converted into a probe (state Probing, call allowed).
func (h *healthFSM) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Dead {
		return true
	}
	h.skipped++
	if h.skipped >= h.pol.ProbeEvery {
		h.skipped = 0
		h.state = Probing
		return true
	}
	return false
}

// onSuccess records a successful call: any state returns to Healthy.
func (h *healthFSM) onSuccess() {
	h.mu.Lock()
	h.state = Healthy
	h.fails = 0
	h.mu.Unlock()
}

// onFailure records a failed call (after retries were exhausted for that
// attempt) and advances the detector.
func (h *healthFSM) onFailure() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == Probing {
		// The probe failed: back to Dead, restart the skip counter.
		h.state = Dead
		h.skipped = 0
		return
	}
	h.fails++
	switch {
	case h.fails >= h.pol.DeadAfter:
		h.state = Dead
		h.skipped = 0
	case h.fails >= h.pol.SuspectAfter:
		h.state = Suspect
	}
}

// State returns the current state.
func (h *healthFSM) State() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}
