package cluster

import (
	"testing"
	"time"
)

func TestHealthFSMTransitions(t *testing.T) {
	h := newHealthFSM()

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
	if h.State() != Suspect {
		t.Fatalf("after 2 failures: %v, want suspect", h.State())
	}
	h.onFailure()
	if h.State() != Dead {
		t.Fatalf("after 3 failures: %v, want dead", h.State())
	}

	// probe requires a Dead worker to decline three calls and to turn the
	// 4th skipped call into a probe.
	probe := func(round string) {
		t.Helper()
		for i := 1; i < 4; i++ {
			if h.allow() {
				t.Fatalf("%s: dead worker accepted skipped call %d", round, i)
			}
		}
		if !h.allow() || h.State() != Probing {
			t.Fatalf("%s: 4th skipped call did not probe (state %v)", round, h.State())
		}
	}
	probe("first probe")
	// A failed probe goes straight back to Dead.
	h.onFailure()
	if h.State() != Dead {
		t.Fatalf("after failed probe: %v, want dead", h.State())
	}
	// The next probe succeeds: full resurrection.
	probe("second probe")
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
			h := newHealthFSM()
			for i := 0; i < deadAfter; i++ {
				h.onFailure()
			}
			for i := 1; i < probeEvery; i++ {
				h.allow()
			}
			// Dead, one skip short of a probe: allow takes its probe path
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
