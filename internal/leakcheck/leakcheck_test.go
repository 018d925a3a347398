package leakcheck

import (
	"strings"
	"testing"
	"time"

	"texid/internal/blas"
)

// TestSurvivors pins what the check reports: a blocked goroutine is a
// survivor, with its stack, until it exits, and blas's process-lifetime
// pool workers never are. Inside a test the runner's own goroutines
// survive too, so the rows count only the goroutines they name.
func TestSurvivors(t *testing.T) {
	reported := func(frame string) int {
		n := 0
		for _, g := range others() {
			if strings.Contains(g, frame) {
				n++
			}
		}
		return n
	}
	// within polls until the named goroutine is reported want times.
	within := func(frame string, want int) {
		t.Helper()
		for end := time.Now().Add(Deadline); reported(frame) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("%s reported %d times, want %d", frame, reported(frame), want)
			}
		}
	}
	blas.Parallel(4, func(int) {}) // starts the pool workers
	if n := reported("blas.poolWorker"); n != 0 {
		t.Fatalf("%d pool workers reported", n)
	}
	release := make(chan struct{})
	go blockedOn(release)
	within("leakcheck.blockedOn", 1)
	close(release)
	within("leakcheck.blockedOn", 0)
}

func blockedOn(ch chan struct{}) { <-ch }
