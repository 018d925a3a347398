package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentMixed exercises the whole registry surface at
// once: racing registrations of the same names (must converge on one
// instance), observations, and Expose scrapes mid-flight. The final
// totals verify no update was lost.
func TestRegistryConcurrentMixed(t *testing.T) {
	r := NewRegistry()
	const workers, opsPer = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				r.Counter("hits_total", "shared counter").Inc()
				r.Gauge("occupancy", "shared gauge").Set(float64(i))
				r.Histogram("latency_ms", "shared histogram", DefBuckets).Observe(float64(i % 100))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = r.Expose()
		}
	}()
	wg.Wait()

	if got := r.Counter("hits_total", "").Value(); got != workers*opsPer {
		t.Fatalf("counter lost updates: %g, want %d", got, workers*opsPer)
	}
	count, _ := r.Histogram("latency_ms", "", DefBuckets).Snapshot()
	if count != workers*opsPer {
		t.Fatalf("histogram lost samples: %d, want %d", count, workers*opsPer)
	}
	out := r.Expose()
	for _, want := range []string{"hits_total", "occupancy", "latency_ms_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryReadsAreOrderedByMu: a lookup or scrape runs first, and a
// registration of a new name follows it with only mu between them, so
// -race reports a map read made outside the critical section on every run.
// The sleep only lets the read go first; waiting on it would order it
// before the registration and hide the race.
func TestRegistryReadsAreOrderedByMu(t *testing.T) {
	reads := map[string]func(*Registry){
		"Counter":   func(r *Registry) { r.Counter("a_total", "") },
		"Gauge":     func(r *Registry) { r.Gauge("b", "") },
		"Histogram": func(r *Registry) { r.Histogram("c", "", DefBuckets) },
		"Expose":    func(r *Registry) { _ = r.Expose() },
	}
	for name, read := range reads {
		r := NewRegistry()
		r.Counter("a_total", "")
		r.Gauge("b", "")
		r.Histogram("c", "", DefBuckets)
		done := make(chan struct{})
		go func() {
			read(r)
			close(done)
		}()
		time.Sleep(5 * time.Millisecond) // the read has run; only mu orders it before the registration
		r.Counter("d_total", "")
		<-done
		if t.Failed() {
			t.Fatalf("%s then a registration", name)
		}
	}
}
