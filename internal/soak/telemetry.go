package soak

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// GCTelemetry is the runtime's view of one soak scenario: what the
// collector did while the load ran. Pause quantiles come from the
// runtime's own /gc/pauses:seconds histogram (delta between scenario
// start and end, so concurrent scenarios never see each other's pauses);
// heap and goroutine peaks are sampled on a coarse ticker, which is
// enough to catch sustained growth even if it can miss a momentary spike.
type GCTelemetry struct {
	// Pauses is the number of stop-the-world pauses observed.
	Pauses int64
	// Cycles is the number of completed GC cycles.
	Cycles uint64
	// PauseP50US/PauseP99US/PauseMaxUS are stop-the-world pause quantiles
	// in microseconds (upper-bound estimates from the runtime histogram).
	PauseP50US float64
	PauseP99US float64
	PauseMaxUS float64
	// HeapPeakMB is the peak sampled heap-objects footprint.
	HeapPeakMB float64
	// GoroutinePeak is the peak sampled goroutine count.
	GoroutinePeak int
	// AllocMB is the total bytes allocated during the scenario.
	AllocMB float64
}

// Metric names sampled from runtime/metrics. All exist since Go 1.16+;
// sampler degrades to zeros (KindBad) rather than failing if one is ever
// renamed.
const (
	mGCPauses   = "/gc/pauses:seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
)

// telemetry samples runtime/metrics for the duration of one scenario.
type telemetry struct {
	start []metrics.Sample

	// mu owns heapPeak and goroutinePeak.
	mu            sync.Mutex
	heapPeak      uint64
	goroutinePeak uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// startTelemetry snapshots the cumulative runtime metrics and begins
// sampling instantaneous ones (heap, goroutines) every interval.
func startTelemetry(interval time.Duration) *telemetry {
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	t := &telemetry{
		start: newSamples(),
		done:  make(chan struct{}),
	}
	metrics.Read(t.start)
	t.samplePeaks()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.done:
				return
			case <-tick.C:
				t.samplePeaks()
			}
		}
	}()
	return t
}

func newSamples() []metrics.Sample {
	names := []string{mGCPauses, mGCCycles, mHeapAllocs}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}

// samplePeaks reads the instantaneous gauges and folds them into the
// running peaks.
func (t *telemetry) samplePeaks() {
	s := []metrics.Sample{{Name: mHeapBytes}, {Name: mGoroutines}}
	metrics.Read(s)
	t.mu.Lock()
	if v := kindUint64(s[0]); v > t.heapPeak {
		t.heapPeak = v
	}
	if v := kindUint64(s[1]); v > t.goroutinePeak {
		t.goroutinePeak = v
	}
	t.mu.Unlock()
}

// stop ends sampling and returns the telemetry delta for the scenario.
func (t *telemetry) stop() GCTelemetry {
	close(t.done)
	t.wg.Wait()
	t.samplePeaks()

	end := newSamples()
	metrics.Read(end)

	var g GCTelemetry
	g.Cycles = kindUint64(end[1]) - kindUint64(t.start[1])
	g.AllocMB = float64(kindUint64(end[2])-kindUint64(t.start[2])) / (1 << 20)
	t.mu.Lock()
	g.HeapPeakMB = float64(t.heapPeak) / (1 << 20)
	g.GoroutinePeak = int(t.goroutinePeak)
	t.mu.Unlock()

	if d := histDelta(t.start[0], end[0]); d != nil {
		g.Pauses = d.total
		g.PauseP50US = d.quantile(0.50) * 1e6
		g.PauseP99US = d.quantile(0.99) * 1e6
		g.PauseMaxUS = d.maxEdge() * 1e6
	}
	return g
}

func kindUint64(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

// pauseDelta is the per-bucket difference of two runtime pause
// histograms: the pauses that happened during the scenario.
type pauseDelta struct {
	edges  []float64 // len(counts)+1 boundaries, possibly ±Inf at the ends
	counts []uint64
	total  int64
}

func histDelta(start, end metrics.Sample) *pauseDelta {
	if start.Value.Kind() != metrics.KindFloat64Histogram || end.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h0, h1 := start.Value.Float64Histogram(), end.Value.Float64Histogram()
	if len(h0.Counts) != len(h1.Counts) {
		return nil
	}
	d := &pauseDelta{edges: h1.Buckets, counts: make([]uint64, len(h1.Counts))}
	for i := range d.counts {
		d.counts[i] = h1.Counts[i] - h0.Counts[i]
		d.total += int64(d.counts[i])
	}
	return d
}

// quantile returns the upper bucket edge at which the cumulative count
// reaches q (finite: an infinite top edge falls back to its lower edge).
func (d *pauseDelta) quantile(q float64) float64 {
	if d.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(d.total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range d.counts {
		seen += int64(c)
		if seen >= target {
			return d.edge(i)
		}
	}
	return d.edge(len(d.counts) - 1)
}

// maxEdge returns the upper edge of the highest non-empty bucket.
func (d *pauseDelta) maxEdge() float64 {
	for i := len(d.counts) - 1; i >= 0; i-- {
		if d.counts[i] > 0 {
			return d.edge(i)
		}
	}
	return 0
}

// edge returns a finite upper edge for bucket i.
func (d *pauseDelta) edge(i int) float64 {
	hi := d.edges[i+1]
	if math.IsInf(hi, 1) {
		hi = d.edges[i]
	}
	if math.IsInf(hi, -1) || math.IsNaN(hi) {
		return 0
	}
	return hi
}
