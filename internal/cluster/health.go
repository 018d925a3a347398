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

// The failure detector's thresholds, counted in calls (never wall time,
// which keeps transitions deterministic): one failure raises suspicion,
// three consecutive failures kill, and every fourth call skipped while
// Dead is offered as a probe.
const (
	suspectAfter = 1
	deadAfter    = 3
	probeEvery   = 4
)

// healthFSM is one worker's failure detector. Its own mutex (not the
// coordinator's) keeps transitions atomic while scatter-gather calls run
// concurrently.
type healthFSM struct {
	// mu owns state, fails and skipped; it is a leaf lock.
	mu      sync.Mutex
	state   HealthState
	fails   int // consecutive failures
	skipped int // calls skipped while Dead, counts toward the next probe
}

func newHealthFSM() *healthFSM { return &healthFSM{} }

// allow reports whether the next call should be routed to the worker.
// Dead workers decline, except that every probeEvery-th declined call is
// converted into a probe (state Probing, call allowed).
func (h *healthFSM) allow() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Dead {
		return true
	}
	h.skipped++
	if h.skipped >= probeEvery {
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
	case h.fails >= deadAfter:
		h.state = Dead
		h.skipped = 0
	case h.fails >= suspectAfter:
		h.state = Suspect
	}
}

// State returns the current state.
func (h *healthFSM) State() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}
