package main

import (
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"texid/internal/gpusim"
)

// tally counts what a phase sent and what came back, against ground truth.
type tally struct {
	attempted int // requests
	failed    int // requests that errored, were refused or returned non-2xx
	answered  int // queries in successful replies
	correct   int // of those, best_id = ground truth and accepted
}

func (a *tally) add(b tally) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.answered += b.answered
	a.correct += b.correct
}

// check scores one reply against the ground truth of pooled request i.
func (a *tally) check(in *inputs, i int, r reply) {
	a.attempted++
	if !r.ok || len(r.answers) != in.perRequest {
		a.failed++
		return
	}
	for k, ans := range r.answers {
		a.answered++
		if ans.accepted && ans.bestID == in.truth[i*in.perRequest+k] {
			a.correct++
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simResult is the single-caller pass over every pooled request: one
// request at a time on one connection, so the coalescer never merges
// requests, batch composition is fixed and the device-clock numbers repeat
// exactly from run to run.
type simResult struct {
	tally
	first     reply                     // reply to pooled request 0, for the oracle check
	simUS     []float64                 // device-clock latency per request
	wallMS    []float64                 // client-observed latency per request, untraced
	profile   map[string]gpusim.OpStats // device op deltas, summed over shards
	clockUS   float64                   // device clock advance, summed over shards
	peakAlloc int64                     // highest device allocation on any shard
}

func simPass(t target, in *inputs) simResult {
	var res simResult
	engines := t.engines()
	before := make([]map[string]gpusim.OpStats, len(engines))
	clock0 := make([]float64, len(engines))
	for i, e := range engines {
		before[i] = e.Device().Profile()
		clock0[i] = e.Device().Synchronize()
	}
	for i := 0; i < in.requests(); i++ {
		t0 := time.Now()
		r := t.request(0, i)
		res.wallMS = append(res.wallMS, ms(time.Since(t0)))
		res.check(in, i, r)
		if i == 0 {
			res.first = r
		}
		if r.ok && len(r.answers) > 0 {
			res.simUS = append(res.simUS, r.answers[0].simUS)
		}
	}
	res.profile = make(map[string]gpusim.OpStats)
	for i, e := range engines {
		for op, after := range e.Device().Profile() {
			d := res.profile[op]
			d.Count += after.Count - before[i][op].Count
			d.TotalUS += after.TotalUS - before[i][op].TotalUS
			res.profile[op] = d
		}
		res.clockUS += e.Device().Synchronize() - clock0[i]
		if p := e.Device().PeakAllocated(); p > res.peakAlloc {
			res.peakAlloc = p
		}
	}
	return res
}

// timedResult is the loaded phase all wall-clock end-to-end numbers come
// from: closed-loop search callers and, in the churn workload, one paced
// writer timed from each write's due time.
type timedResult struct {
	tally
	elapsed  time.Duration
	searchMS []float64 // one sample per successful search request
	enrollMS []float64 // one sample per successful write, from its due time
	lateMS   []float64 // how late the writer sent each write
	writes   tally     // writes and compactions (requests only)
	before   runtimeSnapshot
	after    runtimeSnapshot
	heapPeak uint64
	batches  int // sealed batches over all shards when the phase ended
}

func runTimed(t target, s spec, in *inputs, d time.Duration) timedResult {
	var res timedResult
	res.before = snapshotRuntime(t)
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	perCaller := make([]timedResult, s.callers)
	for c := 0; c < s.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &perCaller[c]
			// Callers start at different pool offsets so they do not send
			// the same query at the same moment.
			for i := c * in.requests() / s.callers; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				r := t.request(c, i%in.requests())
				lat := time.Since(t0)
				out.check(in, i%in.requests(), r)
				if r.ok {
					out.searchMS = append(out.searchMS, ms(lat))
				}
			}
		}(c)
	}
	var writer timedResult
	if rt, ok := t.(*restTarget); ok && s.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer = rt.pacedWriter(s.callers, start, deadline)
		}()
	}
	stopHeap, heapPeak := make(chan struct{}), make(chan uint64, 1)
	go func() { heapPeak <- watchHeap(stopHeap) }()
	wg.Wait()
	res.elapsed = time.Since(start)
	close(stopHeap)
	res.heapPeak = <-heapPeak
	res.after = snapshotRuntime(t)

	for _, p := range perCaller {
		res.add(p.tally)
		res.searchMS = append(res.searchMS, p.searchMS...)
	}
	res.enrollMS, res.lateMS, res.writes = writer.enrollMS, writer.lateMS, writer.writes
	for _, e := range t.engines() {
		res.batches += e.Stats().Batches
	}
	return res
}

// pacedWriter rewrites the churn ids on a fixed schedule of writesPerSec,
// on its own connection. Each write is timed from when it was due, so a
// stall charges the writes queued behind it; lateness is how far behind
// schedule the generator itself ran. One writer only: concurrent Updates of
// one id hit the known non-atomic Update and would fail at random.
func (t *restTarget) pacedWriter(conn int, start, deadline time.Time) timedResult {
	var res timedResult
	churnIDs := t.spec.refs - stableRefs
	for k := 0; ; k++ {
		id := stableRefs + k%churnIDs
		body := t.in.writeBody(id, 1+k/churnIDs)
		due := start.Add(time.Duration(k) * time.Second / writesPerSec)
		if !due.Before(deadline) {
			return res
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		status, _, err := t.do(conn, http.MethodPut, "/v1/textures/"+strconv.Itoa(id), body)
		res.writes.attempted++
		if err != nil || status/100 != 2 {
			res.writes.failed++
		} else {
			res.enrollMS = append(res.enrollMS, ms(time.Since(due)))
			res.lateMS = append(res.lateMS, ms(sent.Sub(due)))
		}
		if (k+1)%compactEvery == 0 {
			status, _, err := t.do(conn, http.MethodPost, "/v1/compact", nil)
			res.writes.attempted++
			if err != nil || status/100 != 2 {
				res.writes.failed++
			}
		}
	}
}

// runtimeSnapshot is the process and admission-layer counters read before
// and after the timed phase.
type runtimeSnapshot struct {
	mem       runtime.MemStats
	cpu       time.Duration
	submitted uint64
	batches   uint64
}

func snapshotRuntime(t target) runtimeSnapshot {
	var s runtimeSnapshot
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	if rt, ok := t.(*restTarget); ok {
		st := rt.cluster.ServeStats()
		s.submitted, s.batches = st.Submitted, st.Batches
	}
	return s
}

// maxPauseUS is the longest GC pause between two snapshots.
func maxPauseUS(before, after *runtime.MemStats) float64 {
	var worst uint64
	n := after.NumGC - before.NumGC
	if n > uint32(len(after.PauseNs)) {
		n = uint32(len(after.PauseNs))
	}
	for i := uint32(0); i < n; i++ {
		if p := after.PauseNs[(after.NumGC-1-i)%uint32(len(after.PauseNs))]; p > worst {
			worst = p
		}
	}
	return float64(worst) / 1e3
}
