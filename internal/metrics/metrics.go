// Package metrics is a minimal, dependency-free metrics registry with a
// Prometheus-text exposition endpoint, used by the distributed search
// service: counters for API traffic, gauges for cache occupancy, and
// histograms for search latency. It implements just enough of the
// Prometheus text format (counters, gauges, cumulative histograms) for
// standard scrapers to consume.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MaxMetrics caps the distinct metric names one registry will hold.
// Registration interns by name (one canonical object per name, returned
// to every caller), so a fixed instrumentation vocabulary costs a fixed
// number of slots — but a bug that derives metric names from request
// data (a dynamic op label, an id baked into the name) would otherwise
// grow the exposition without bound over a long soak, turning /metrics
// into an allocation leak and the scrape into an ever-larger payload.
// Past the cap, registration returns a live but unexported metric and
// the overflow is counted in texid_metrics_dropped_total.
const MaxMetrics = 512

// DroppedMetricName is the counter tracking registrations refused by the
// MaxMetrics cap. It is registered in every registry, so a non-zero
// sample on a scrape is the audit signal that something is minting
// dynamic metric names.
const DroppedMetricName = "texid_metrics_dropped_total"

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	// mu owns the four maps. Order: mu before a Histogram's mu (Expose).
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string

	// dropped counts registrations refused by the MaxMetrics cap (also
	// exposed as DroppedMetricName; the field keeps the hot path free of
	// a map lookup).
	dropped *Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
	r.dropped = &Counter{}
	r.counters[DroppedMetricName] = r.dropped
	r.help[DroppedMetricName] = "metric registrations refused by the MaxMetrics name cap"
	return r
}

// atCapLocked reports whether registering name would exceed MaxMetrics.
// Existing names always pass: interning returns the canonical object.
func (r *Registry) atCapLocked(name string) bool {
	if _, ok := r.help[name]; ok {
		return false
	}
	return len(r.help) >= MaxMetrics
}

// Dropped returns how many registrations the cap has refused.
func (r *Registry) Dropped() float64 { return r.dropped.Value() }

// Counter is a monotonically increasing counter. Float values are stored
// as micro-units in a uint64 so Add is lock-free.
type Counter struct {
	micro atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.micro.Add(uint64(v * 1e6))
}

// Value returns the current count.
func (c *Counter) Value() float64 { return float64(c.micro.Load()) / 1e6 }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative histogram with fixed upper bounds.
type Histogram struct {
	// mu owns buckets, count and sum; bounds is fixed at registration.
	mu      sync.Mutex
	bounds  []float64
	buckets []uint64
	count   uint64
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
		}
	}
}

// Snapshot returns (count, sum) for tests and stats.
func (h *Histogram) Snapshot() (uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum
}

// Quantile returns an upper-bound estimate of the q-quantile (the bucket
// boundary at which the cumulative count reaches q).
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	for i, b := range h.bounds {
		if h.buckets[i] >= target {
			return b
		}
	}
	return math.Inf(1)
}

// validName guards against names that would corrupt the exposition format.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.atCapLocked(name) {
		r.dropped.Inc()
		return &Counter{} // live but never exposed
	}
	c := &Counter{}
	r.counters[name] = c
	r.help[name] = help
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.atCapLocked(name) {
		r.dropped.Inc()
		return &Gauge{} // live but never exposed
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.help[name] = help
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if r.atCapLocked(name) {
		r.dropped.Inc()
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		return &Histogram{bounds: bs, buckets: make([]uint64, len(bs))} // live but never exposed
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, buckets: make([]uint64, len(bs))}
	r.histograms[name] = h
	r.help[name] = help
	return h
}

// Expose renders every metric in the Prometheus text exposition format.
func (r *Registry) Expose() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if help := r.help[n]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, help)
		}
		switch {
		case r.counters[n] != nil:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %g\n", n, n, r.counters[n].Value())
		case r.gauges[n] != nil:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", n, n, r.gauges[n].Value())
		case r.histograms[n] != nil:
			h := r.histograms[n]
			fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
			h.mu.Lock()
			for i, bound := range h.bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, fmt.Sprintf("%g", bound), h.buckets[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, h.count)
			fmt.Fprintf(&b, "%s_sum %g\n", n, h.sum)
			fmt.Fprintf(&b, "%s_count %d\n", n, h.count)
			h.mu.Unlock()
		}
	}
	return b.String()
}

// Handler serves the exposition format over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		// A failed scrape write is the scraper's problem, not ours.
		_, _ = fmt.Fprint(w, r.Expose())
	})
}

// DefBuckets are latency bounds in milliseconds suitable for search
// requests.
var DefBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
