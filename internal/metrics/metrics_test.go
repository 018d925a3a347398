package metrics

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored
	if got := c.Value(); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	// Same name returns the same counter.
	if r.Counter("requests_total", "") != c {
		t.Fatal("re-registration returned a new counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %g, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("cache_bytes", "")
	g.Set(42.5)
	if g.Value() != 42.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %g", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_ms", "", []float64{1000, 10, 100}) // bounds are sorted on registration
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	count, sum := h.Snapshot()
	if count != 5 || sum != 5556 {
		t.Fatalf("snapshot = %d, %g", count, sum)
	}
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %g, want 100 (bucket bound)", q)
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99 = %g, want +Inf (beyond last bound)", q)
	}
	empty := r.Histogram("empty_ms", "", []float64{1})
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestExposeFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "things").Add(3)
	r.Gauge("b_bytes", "size").Set(7)
	h := r.Histogram("c_ms", "lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	out := r.Expose()
	for _, want := range []string{
		"# TYPE a_total counter", "a_total 3",
		"# TYPE b_bytes gauge", "b_bytes 7",
		"# TYPE c_ms histogram",
		`c_ms_bucket{le="1"} 1`,
		`c_ms_bucket{le="10"} 2`,
		`c_ms_bucket{le="+Inf"} 2`,
		"c_ms_sum 5.5", "c_ms_count 2",
		"# HELP a_total things",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "hits_total 1") {
		t.Fatalf("handler output: %s", buf[:n])
	}
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name accepted")
		}
	}()
	NewRegistry().Counter("bad name!", "")
}

func TestRegistryCapsDistinctNames(t *testing.T) {
	r := NewRegistry()
	// Fill the registry up to the cap (one slot is taken by the dropped
	// counter itself), simulating a bug that mints metric names from
	// request data.
	for i := 0; len(r.help) < MaxMetrics; i++ {
		r.Counter(fmt.Sprintf("texid_dynamic_%d", i), "runaway name")
	}
	if d := r.Dropped(); d != 0 {
		t.Fatalf("cap tripped while filling: %v", d)
	}
	linesAtCap := strings.Count(r.Expose(), "\n")

	// Overflow: registrations still return live metrics, but the
	// exposition stops growing and the overflow is counted.
	over := r.Counter("texid_overflow_counter", "refused")
	over.Add(5)
	if got := over.Value(); got != 5 {
		t.Fatalf("overflow counter not usable: %v", got)
	}
	r.Gauge("texid_overflow_gauge", "refused").Set(1)
	refused := r.Histogram("texid_overflow_hist", "refused", []float64{100, 1})
	refused.Observe(0.5)
	if q := refused.Quantile(1); q != 1 {
		t.Fatalf("overflow histogram p100 = %g, want 1: bounds not sorted", q)
	}
	if d := r.Dropped(); d != 3 {
		t.Fatalf("dropped = %v, want 3", d)
	}
	body := r.Expose()
	if got := strings.Count(body, "\n"); got != linesAtCap {
		t.Fatalf("exposition grew past the cap: %d lines, was %d", got, linesAtCap)
	}
	if !strings.Contains(body, DroppedMetricName+" 3") {
		t.Fatalf("dropped counter not exposed:\n%s", body[:200])
	}

	// Interning: re-registering an existing name is never refused and
	// returns the canonical object, even at cap.
	again := r.Counter("texid_dynamic_0", "")
	again.Inc()
	if r.Dropped() != 3 {
		t.Fatal("re-registration of an interned name counted as dropped")
	}
	if r.Counter("texid_dynamic_0", "") != again {
		t.Fatal("interning broke: distinct objects for one name")
	}
}

// Dropped returns how many registrations the cap has refused.
func (r *Registry) Dropped() float64 { return r.dropped.Value() }
