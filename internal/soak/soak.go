// Package soak is the sustained-load harness for the serving path: an
// open-loop load generator that drives a search target (an in-process
// cluster of one or more shards, or a live texsearchd over HTTP) at a
// configured request rate and reports coordinated-omission-safe tail
// latency plus GC telemetry.
//
// Open loop vs closed loop: a closed-loop generator (a fixed worker pool
// issuing the next request only after the previous one returns) lets a
// slow server throttle its own load — stalls shrink the offered rate and
// the measured tail collapses toward the stall-free path. The soak
// harness instead schedules request *arrival times* up front from the
// configured rate (Poisson or uniform interarrivals) and launches each
// request at its intended time regardless of how many are still in
// flight, the way production traffic actually behaves.
//
// Coordinated omission: every latency is measured against the request's
// intended send time, not the moment a goroutine got around to sending
// it. If the generator itself falls behind (scheduler stall, GC pause on
// the load path), that queueing delay is charged to the requests it
// delayed rather than silently dropped — the p99.9 of the report is the
// p99.9 a real open-loop client would have seen.
//
// Two clocks: wall-mode scenarios (steady, churn, GOGC sweep) measure
// real time and are machine-dependent — their rows are compared only with
// the parent commit run beside them on one host (scripts/bench.sh). The
// sim-clock variant (RunSim) replays the same scenario shape on the
// simulated device clock with a sequential queueing model, producing
// bit-identical latency histograms and result transcripts across runs and
// GOMAXPROCS settings; that half gates unconditionally against
// BENCH_BASELINE.json, including in CI. internal/bench's op table turns
// both into rows.
package soak

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Target is a search service under soak. Keys select deterministically
// from the target's query/churn pools, so a seeded scenario issues the
// same op sequence against every target implementation.
type Target interface {
	// Search runs one read (identification) op.
	Search(k uint64) error
	// Enroll runs one write (enrollment-churn) op: an Update cycling a
	// bounded id pool, so sustained churn reshapes the index without
	// growing the reference count.
	Enroll(k uint64) error
	// Close releases the target.
	Close() error
}

// Arrival processes supported by Scenario.
const (
	// ArrivalPoisson draws exponential interarrival gaps (memoryless open
	// traffic, the production default).
	ArrivalPoisson = "poisson"
	// ArrivalUniform spaces arrivals exactly 1/QPS apart (a metronome:
	// lower variance, useful to isolate server-side jitter).
	ArrivalUniform = "uniform"
)

// Scenario is one soak workload shape.
type Scenario struct {
	// Name labels the scenario in reports ("steady", "churn", ...).
	Name string
	// QPS is the offered arrival rate (requests per wall second).
	QPS float64
	// Duration is how long to offer load.
	Duration time.Duration
	// Arrival is ArrivalPoisson (default) or ArrivalUniform.
	Arrival string
	// WriteRatio is the fraction of arrivals that are enrollment-churn
	// writes (0 = read-only steady state).
	WriteRatio float64
	// Seed fixes the arrival schedule and read/write interleaving.
	Seed int64
	// GOGC, when > 0, runs the scenario under debug.SetGCPercent(GOGC)
	// (restored afterwards). Used by the suite's GC sweep points.
	GOGC int
	// MemLimitMB, when > 0, runs the scenario under a soft memory limit
	// of MemLimitMB MiB (restored afterwards). Used by the sweep points.
	MemLimitMB int64
}

// LatencySummary is one histogram's report: CO-safe quantiles in
// milliseconds measured against intended send times.
type LatencySummary struct {
	Count  int64
	MeanMS float64
	P50MS  float64
	P99MS  float64
	P999MS float64
	MaxMS  float64
}

// summarize converts a microsecond histogram into the report form.
func summarize(h *hist) LatencySummary {
	return LatencySummary{
		Count:  h.count,
		MeanMS: h.mean() / 1e3,
		P50MS:  float64(h.quantile(0.50)) / 1e3,
		P99MS:  float64(h.quantile(0.99)) / 1e3,
		P999MS: float64(h.quantile(0.999)) / 1e3,
		MaxMS:  float64(h.max) / 1e3,
	}
}

// ScenarioResult is the structured outcome of one wall-mode scenario.
type ScenarioResult struct {
	Name        string
	AchievedQPS float64
	DurationSec float64
	// GOGC/MemLimitMB echo sweep overrides (0 = runtime default).
	GOGC       int
	MemLimitMB int64

	Reads  int64
	Writes int64
	Errors int64

	// Read is the headline CO-safe latency distribution; Write covers the
	// churn ops (absent in read-only scenarios).
	Read  LatencySummary
	Write *LatencySummary

	GC GCTelemetry
}

// op is one precomputed arrival.
type op struct {
	offset time.Duration // intended send time relative to scenario start
	write  bool
	key    uint64
}

// schedule precomputes the full arrival sequence from the scenario seed,
// so the offered load is identical run to run (up to wall-clock noise).
func schedule(sc Scenario) []op {
	n := int(sc.QPS * sc.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	ops := make([]op, n)
	var at float64 // seconds
	for i := range ops {
		switch sc.Arrival {
		case ArrivalUniform:
			at = float64(i) / sc.QPS
		default: // Poisson
			at += rng.ExpFloat64() / sc.QPS
		}
		ops[i] = op{
			offset: time.Duration(at * float64(time.Second)),
			write:  rng.Float64() < sc.WriteRatio,
			key:    uint64(rng.Int63()),
		}
	}
	return ops
}

// Run executes one scenario against target and returns its result.
//
// The dispatcher sleeps until each op's intended send time and fires it
// in its own goroutine; latency is completion minus *intended* time, so
// dispatcher lag is charged to the ops it delayed (no coordinated
// omission). Writes and reads land in separate histograms.
func Run(target Target, sc Scenario) (*ScenarioResult, error) {
	if sc.QPS <= 0 || sc.Duration <= 0 {
		return nil, fmt.Errorf("soak: scenario %q needs positive QPS and Duration", sc.Name)
	}
	if sc.Arrival == "" {
		sc.Arrival = ArrivalPoisson
	}
	if sc.GOGC > 0 {
		defer debug.SetGCPercent(debug.SetGCPercent(sc.GOGC))
	}
	if sc.MemLimitMB > 0 {
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(sc.MemLimitMB << 20))
	}

	ops := schedule(sc)

	var (
		mu        sync.Mutex // guards readHist and writeHist
		readHist  hist
		writeHist hist
		errs      atomic.Int64
		wg        sync.WaitGroup
	)

	tel := startTelemetry(0)
	start := time.Now()
	for i := range ops {
		o := ops[i]
		intended := start.Add(o.offset)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if o.write {
				err = target.Enroll(o.key)
			} else {
				err = target.Search(o.key)
			}
			lat := time.Since(intended).Microseconds()
			if err != nil {
				errs.Add(1)
				return
			}
			mu.Lock()
			if o.write {
				writeHist.record(lat)
			} else {
				readHist.record(lat)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	gc := tel.stop()

	mu.Lock()
	defer mu.Unlock()
	res := &ScenarioResult{
		Name:        sc.Name,
		AchievedQPS: float64(len(ops)) / elapsed.Seconds(),
		DurationSec: elapsed.Seconds(),
		GOGC:        sc.GOGC,
		MemLimitMB:  sc.MemLimitMB,
		Reads:       readHist.count,
		Writes:      writeHist.count,
		Errors:      errs.Load(),
		Read:        summarize(&readHist),
		GC:          gc,
	}
	if writeHist.count > 0 {
		w := summarize(&writeHist)
		res.Write = &w
	}
	return res, nil
}
