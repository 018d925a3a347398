package cluster

import (
	"testing"
	"time"
)

func TestHealthFSMTransitions(t *testing.T) {
	h := newHealthFSM(HealthPolicy{SuspectAfter: 1, DeadAfter: 3, ProbeEvery: 2})

	if !h.allow() || h.State() != Healthy {
		t.Fatal("fresh worker must be healthy and routable")
	}
	h.onFailure()
	if h.State() != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", h.State())
	}
	if !h.allow() {
		t.Fatal("suspect workers still receive traffic")
	}
	h.onFailure()
	h.onFailure()
	if h.State() != Dead {
		t.Fatalf("after 3 failures: %v, want dead", h.State())
	}

	// Dead workers decline calls until the probe interval elapses.
	if h.allow() {
		t.Fatal("dead worker accepted a call before the probe interval")
	}
	if !h.allow() {
		t.Fatal("second skipped call should convert to a probe (ProbeEvery=2)")
	}
	if h.State() != Probing {
		t.Fatalf("probe state = %v", h.State())
	}
	// A failed probe goes straight back to Dead.
	h.onFailure()
	if h.State() != Dead {
		t.Fatalf("after failed probe: %v, want dead", h.State())
	}
	// Next probe succeeds: full resurrection.
	h.allow()
	if !h.allow() || h.State() != Probing {
		t.Fatalf("expected another probe, state %v", h.State())
	}
	h.onSuccess()
	if h.State() != Healthy {
		t.Fatalf("after successful probe: %v, want healthy", h.State())
	}
	// Consecutive-failure counter reset by the success.
	h.onFailure()
	if h.State() != Suspect {
		t.Fatalf("failure count survived resurrection: %v", h.State())
	}
}

func TestHealthPolicyDefaults(t *testing.T) {
	p := HealthPolicy{}.withDefaults()
	if p.SuspectAfter != 1 || p.DeadAfter != 3 || p.ProbeEvery != 4 {
		t.Fatalf("defaults = %+v", p)
	}
	// DeadAfter is clamped to at least SuspectAfter.
	p = HealthPolicy{SuspectAfter: 5, DeadAfter: 2}.withDefaults()
	if p.DeadAfter != 5 {
		t.Fatalf("DeadAfter not clamped: %+v", p)
	}
}

// TestHealthFSMTransitionsAreOrderedByMu: scatter-gather calls drive one
// worker's detector from several goroutines at once. Each transition runs
// first in its own goroutine, and a second transition follows it with
// only mu between them, so -race reports any field the first one touched
// outside its critical section, on every run. The sleep only lets the
// first step go first; waiting on it would order it before the second.
func TestHealthFSMTransitionsAreOrderedByMu(t *testing.T) {
	steps := map[string]func(*healthFSM){
		"allow":     func(h *healthFSM) { h.allow() },
		"onSuccess": (*healthFSM).onSuccess,
		"onFailure": (*healthFSM).onFailure,
		"State":     func(h *healthFSM) { _ = h.State() },
	}
	for first, step := range steps {
		for second, then := range steps {
			h := newHealthFSM(HealthPolicy{SuspectAfter: 1, DeadAfter: 2, ProbeEvery: 1})
			h.onFailure()
			h.onFailure() // Dead: allow takes its probe path
			done := make(chan struct{})
			go func() {
				step(h)
				close(done)
			}()
			time.Sleep(5 * time.Millisecond) // the first step has run; only mu orders it before the second
			then(h)
			<-done
			if t.Failed() {
				t.Fatalf("%s then %s", first, second)
			}
		}
	}
}
