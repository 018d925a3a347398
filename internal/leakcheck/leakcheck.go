// Package leakcheck is the goroutine-exit check of the packages that spawn
// goroutines (kvstore, cluster, soak, texture, bench). Each calls Main from
// its TestMain: after the package's tests pass, every goroutine they left
// behind must exit within Deadline, or the test binary fails and prints
// the survivors' stacks. Two goroutines are process-lifetime by design and
// excepted: blas's pool workers (blas.poolWorker) and the os/signal
// dispatcher that signal.Notify starts (go test -fuzz uses it).
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Deadline is how long Main waits for the tests' goroutines to exit.
const Deadline = 5 * time.Second

// Main runs the package's tests, then the exit check, and exits with the
// tests' status, or 1 when a goroutine outlives Deadline. The check is
// skipped when the tests failed: their own report comes first.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := survivors(Deadline); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running %v after the tests:\n\n%s\n",
				len(left), Deadline, strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors waits up to d for every goroutine but the caller's and the
// process-lifetime ones to exit, and returns the stacks of those that did
// not.
func survivors(d time.Duration) []string {
	for end := time.Now().Add(d); ; time.Sleep(10 * time.Millisecond) {
		left := others()
		if len(left) == 0 || time.Now().After(end) {
			return left
		}
	}
}

// others returns the stack of every goroutine except the caller's (the
// first runtime.Stack prints) and the process-lifetime ones.
func others() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !strings.Contains(g, "\ntexid/internal/blas.poolWorker(") && !strings.Contains(g, "\nos/signal.signal_recv(") {
			out = append(out, g)
		}
	}
	return out
}
