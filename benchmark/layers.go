package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/kvstore"
	"texid/internal/match"
	"texid/internal/sift"
	"texid/internal/wire"
)

// minTraced is the fewest pooled requests the traced pass replays before
// it may stop for lack of time.
const minTraced = 4

// series collects per-request values of one measurement; its median is the
// reported metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) medians(out map[string]float64) {
	for name, v := range s {
		out[name] = median(v)
	}
}

// allocDelta runs fn on this goroutine and returns heap bytes and objects
// allocated meanwhile, process-wide. Only valid while nothing else runs.
func allocDelta(fn func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

// cacheMetrics sums the hybrid-cache occupancy of every shard.
func cacheMetrics(engines []*engine.Engine, out map[string]float64) {
	var gpuItems, hostItems int
	var gpuUsed, hostUsed int64
	for _, e := range engines {
		c := e.Stats().Cache
		gpuItems += c.GPUItems
		hostItems += c.HostItems
		gpuUsed += c.GPUUsed
		hostUsed += c.HostUsed
	}
	out["cache.gpu_items"] = float64(gpuItems)
	out["cache.host_items"] = float64(hostItems)
	if gpuItems+hostItems > 0 {
		out["cache.host_share"] = float64(hostItems) / float64(gpuItems+hostItems)
	}
	out["cache.gpu_used_mb"] = float64(gpuUsed) / (1 << 20)
	out["cache.host_used_mb"] = float64(hostUsed) / (1 << 20)
}

// simMetrics turns the sim pass's device-profile deltas into per-search,
// per-shard numbers. They are on the device clock and repeat exactly.
func simMetrics(sim simResult, shardCount int, out map[string]float64) {
	per := float64(len(sim.simUS) * shardCount)
	if per == 0 {
		return
	}
	// In sorted order: float sums must not depend on map iteration.
	names := make([]string, 0, len(sim.profile))
	for op := range sim.profile {
		names = append(names, op)
	}
	sort.Strings(names)
	var total, ops float64
	for _, op := range names {
		st := sim.profile[op]
		total += st.TotalUS
		ops += float64(st.Count)
		switch {
		case strings.HasPrefix(op, "gemm/"):
			out["gpusim.gemm_us"] += st.TotalUS / per
		case strings.HasPrefix(op, "top2scan/"):
			out["gpusim.top2_us"] += st.TotalUS / per
		case op == "copy/h2d":
			out["gpusim.h2d_us"] += st.TotalUS / per
			out["gpusim.h2d_ops"] += float64(st.Count) / per
		case op == "binscan":
			out["gpusim.binscan_us"] += st.TotalUS / per
		default:
			out["gpusim.other_us"] += st.TotalUS / per
		}
	}
	out["gpusim.ops_per_search"] = ops / per
	if sim.clockUS > 0 {
		out["gpusim.overlap"] = total / sim.clockUS
	}
	out["gpusim.peak_alloc_mb"] = float64(sim.peakAlloc) / (1 << 20)
}

// timedMetrics are the per-layer numbers that only exist under load.
func timedMetrics(t target, s spec, tm timedResult, out map[string]float64) {
	secs := tm.elapsed.Seconds()
	queries := float64(tm.answered)
	if !s.lib && len(tm.searchMS) > 0 { // no HTTP on the library path
		out["http.search_p99_ms"] = percentile(sortedCopy(tm.searchMS), 99)
	}
	if b := tm.after.batches - tm.before.batches; b > 0 {
		out["serve.mean_batch"] = float64(tm.after.submitted-tm.before.submitted) / float64(b)
		out["serve.batches_per_s"] = float64(b) / secs
	}
	if queries > 0 {
		out["runtime.alloc_kb_per_query"] = float64(tm.after.mem.TotalAlloc-tm.before.mem.TotalAlloc) / 1024 / queries
	}
	out["runtime.gc_cycles"] = float64(tm.after.mem.NumGC - tm.before.mem.NumGC)
	out["runtime.gc_pause_max_us"] = maxPauseUS(&tm.before.mem, &tm.after.mem)
	out["runtime.cpu_util"] = (tm.after.cpu - tm.before.cpu).Seconds() / secs / float64(runtime.NumCPU())
	out["runtime.heap_peak_mb"] = float64(tm.heapPeak) / (1 << 20)
	if len(tm.enrollMS) > 0 {
		e := sortedCopy(tm.enrollMS)
		out["enroll_p50_ms"] = percentile(e, 50)
		out["loadgen.enroll_p90_ms"] = percentile(e, 90)
		out["loadgen.writer_late_p99_ms"] = percentile(sortedCopy(tm.lateMS), 99)
		out["engine.batches_after_churn"] = float64(tm.batches)
	}
}

// restResponse rebuilds the JSON body the search handlers write for rep.
func restResponse(rep *cluster.Report, ranked bool) cluster.SearchResponse {
	resp := cluster.SearchResponse{
		BestID: rep.BestID, Score: rep.Score, Accepted: rep.Accepted, Compared: rep.Compared,
		ElapsedUS: rep.ElapsedUS, Speed: rep.Speed, Partial: rep.Partial,
		ShardsAnswered: rep.ShardsAnswered, ShardsTotal: rep.ShardsTotal,
	}
	for i := 0; ranked && i < len(rep.Ranked) && i < 10; i++ {
		resp.Ranked = append(resp.Ranked, struct {
			RefID int `json:"ref_id"`
			Score int `json:"score"`
		}{rep.Ranked[i].RefID, rep.Ranked[i].Score})
	}
	return resp
}

// layers is the traced pass of a REST workload: one goroutine replays each
// pooled request at every boundary from the socket down, then the kernel
// calls at the workload's shapes, and records a span tree per request.
func (t *restTarget) layers(tr *tracer, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	ser := make(series)
	in, c := t.in, t.cluster
	engines := c.Workers()
	handler := t.srv.Handler
	n := in.perRequest
	deadline := time.Now().Add(budget)

	// The timed phase left one-image batches and tombstones behind; replay
	// searches against the compacted index the sim pass saw, so the spans
	// are comparable with it and with the kernel shapes below.
	if t.spec.churn {
		if _, err := c.Compact(); err != nil {
			return nil, fmt.Errorf("compacting before the traced pass: %w", err)
		}
	}

	// Kernel calls first: they are shared by every request's tree.
	shard0 := shardRefs(in.refs, 0)
	ks := kernelShapes{cfg: t.spec.engineConfig(), batch: shard0[:t.spec.batchSize], queries: in.queries[:n], qryKps: in.qryKps[0]}
	if t.spec.pruneC > 0 {
		ks.shardAll, ks.thresh = shard0, engines[0].Thresholds()
	}
	kt, err := measureKernels(ks)
	if err != nil {
		return nil, err
	}

	var sc searchCalls
	var truthRanked, ranked int
	var mergedList []match.SearchResult
	for i := 0; i < in.requests() && (i < minTraced || time.Now().Before(deadline)); i++ {
		feats, kps := in.queries[i*n:(i+1)*n], in.qryKps[i*n:(i+1)*n]

		// 1. Over the socket.
		t0 := time.Now()
		status, respBody, err := t.do(0, http.MethodPost, t.searchPath(), in.bodies[i])
		dRT := time.Since(t0)
		if err != nil || status/100 != 2 {
			return nil, fmt.Errorf("traced request %d failed (status %d): %v", i, status, err)
		}

		// 2. The same handler, in process.
		var dHandler time.Duration
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, t.searchPath(), bytes.NewReader(in.bodies[i]))
		allocB, _ := allocDelta(func() {
			t0 = time.Now()
			handler.ServeHTTP(rec, req)
			dHandler = time.Since(t0)
		})
		if rec.Code/100 != 2 {
			return nil, fmt.Errorf("traced in-process request %d: status %d", i, rec.Code)
		}

		// 3. Body decode, as the handler does it: JSON, base64, wire.
		var dWire time.Duration
		t0 = time.Now()
		var body struct {
			RecordB64  string   `json:"record_b64"`
			RecordsB64 []string `json:"records_b64"`
		}
		if err := json.NewDecoder(bytes.NewReader(in.bodies[i])).Decode(&body); err != nil {
			return nil, err
		}
		records := body.RecordsB64
		if !t.spec.churn {
			records = []string{body.RecordB64}
		}
		var rawLen int
		for _, b64 := range records {
			raw, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return nil, err
			}
			rawLen = len(raw)
			w0 := time.Now()
			if _, err := wire.Decode(raw); err != nil {
				return nil, err
			}
			dWire += time.Since(w0)
		}
		dDecode := time.Since(t0)

		// 4-5. Admission layer, then the coordinator without it.
		var dCoal, dSearch time.Duration
		var reps []*cluster.Report
		if t.spec.churn {
			t0 = time.Now()
			reps, err = c.SearchBatch(feats, kps)
			dSearch = time.Since(t0)
		} else {
			t0 = time.Now()
			_, err = c.SearchCoalesced(feats[0], kps[0])
			dCoal = time.Since(t0)
			if err == nil {
				var rep *cluster.Report
				t0 = time.Now()
				rep, err = c.Search(feats[0], kps[0])
				dSearch = time.Since(t0)
				reps = []*cluster.Report{rep}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("traced coordinator search %d: %w", i, err)
		}

		// 6. Each shard alone, then all at once as the coordinator runs them.
		dShard := make([]time.Duration, len(engines))
		compared, scanned := 0, 0
		mergedList = mergedList[:0]
		var shardErr error
		var allocShardB, allocShardN float64
		for w, e := range engines {
			var reports []*engine.Report
			b, o := allocDelta(func() {
				t0 = time.Now()
				reports, shardErr = shardSearch(e, feats, kps)
				dShard[w] = time.Since(t0)
			})
			if shardErr != nil {
				return nil, fmt.Errorf("traced shard search %d: %w", i, shardErr)
			}
			allocShardB, allocShardN = allocShardB+b, allocShardN+o
			for _, r := range reports {
				compared += r.Compared
				scanned += r.Scanned
			}
			// What the coordinator concatenates for the request's first query.
			mergedList = append(mergedList, reports[0].Ranked...)
		}
		t0 = time.Now()
		var wg sync.WaitGroup
		errs := make([]error, len(engines))
		for w, e := range engines {
			wg.Add(1)
			go func(w int, e *engine.Engine) {
				defer wg.Done()
				_, errs[w] = shardSearch(e, feats, kps)
			}(w, e)
		}
		wg.Wait()
		dConc := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("traced shard search %d: %w", i, err)
			}
		}

		// 7. Response encode.
		t0 = time.Now()
		var enc bytes.Buffer
		if t.spec.churn {
			results := make([]cluster.SearchResponse, len(reps))
			for k, rep := range reps {
				results[k] = restResponse(rep, false)
			}
			err = json.NewEncoder(&enc).Encode(map[string][]cluster.SearchResponse{"results": results})
		} else {
			err = json.NewEncoder(&enc).Encode(restResponse(reps[0], true))
		}
		dEncode := time.Since(t0)
		if err != nil {
			return nil, err
		}

		// 8. Merge and rank at the merged list's length.
		cfg := t.spec.engineConfig().Match
		dRank := medianOf(kernelReps, func() {
			list := append([]match.SearchResult(nil), mergedList...)
			match.Identify(list, cfg)
			match.RankResults(list)
		})

		shardsN := float64(len(engines))
		sc = searchCalls{matchCalls: (len(shard0) + t.spec.batchSize - 1) / t.spec.batchSize, queries: n,
			compared: float64(compared) / shardsN / float64(n)}

		// The request's tree.
		root := tr.root(i, "http", "roundtrip", dRT)
		h := tr.child(root, "trace", "Handler.ServeHTTP", dHandler)
		dec := tr.child(h, "http", "decode", dDecode)
		tr.child(dec, "wire", "Decode", dWire)
		search := h
		if !t.spec.churn {
			search = tr.child(h, "serve", "SearchCoalesced", dCoal)
		}
		name := "Search"
		if t.spec.churn {
			name = "SearchBatch"
		}
		cs := tr.child(search, "cluster", name, dSearch)
		conc := tr.child(cs, "trace", "shards at once", dConc)
		for w := range engines {
			sh := tr.parallel(conc, "engine", fmt.Sprintf("shard%d.%s", w, name), dShard[w])
			kt.addKernelSpans(tr, sh, sc)
			if w == 0 {
				ser.add("engine.self_ms", tr.self(sh)/1e3)
			}
		}
		tr.child(cs, "match", "Identify+RankResults", dRank*time.Duration(n))
		tr.child(h, "http", "encode", dEncode)

		ser.add("http.roundtrip_ms", ms(dRT))
		ser.add("http.self_ms", tr.self(root)/1e3)
		ser.add("http.decode_ms", ms(dDecode))
		ser.add("http.encode_ms", ms(dEncode))
		ser.add("http.request_kb", float64(len(in.bodies[i]))/1024)
		ser.add("http.response_kb", float64(len(respBody))/1024)
		ser.add("http.alloc_kb_per_search", allocB/1024)
		ser.add("wire.decode_ms", ms(dWire)/float64(n))
		ser.add("wire.record_kb", float64(rawLen)/1024)
		if !t.spec.churn {
			ser.add("serve.self_ms", tr.self(search)/1e3)
		}
		ser.add("cluster.search_ms", ms(dSearch))
		ser.add("cluster.self_ms", tr.self(cs)/1e3)
		ser.add("cluster.merged_len", float64(len(mergedList)))
		ser.add("cluster.shard_skew", skew(reps[0].PerWorker))
		if t.spec.churn {
			ser.add("engine.searchbatch_ms", ms(dShard[0]))
		} else {
			ser.add("engine.search_ms", ms(dShard[0]))
		}
		ser.add("engine.compared_per_search", float64(compared)/shardsN/float64(n))
		ser.add("engine.scanned_per_search", float64(scanned)/shardsN/float64(n))
		ser.add("engine.allocs_per_search", allocShardN/shardsN)
		ser.add("engine.alloc_kb_per_search", allocShardB/1024/shardsN)
		ser.add("match.rank_ms", ms(dRank))
		ser.add("trace.unaccounted_ms", (tr.self(h)+tr.self(conc))/1e3)
		for k, rep := range reps {
			ranked++
			for _, r := range rep.Ranked {
				if r.RefID == in.truth[i*n+k] {
					truthRanked++
					break
				}
			}
		}
	}
	ser.medians(out)
	kt.metrics(out, sc)
	if t.spec.pruneC > 0 {
		out["binq.candidate_recall"] = float64(truthRanked) / float64(ranked)
	}

	// Record encode, one query record at a time.
	rec := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: in.queries[0], Keypoints: in.qryKps[0]}
	out["wire.encode_ms"] = ms(medianOf(kernelReps, func() { wire.Encode(rec) }))

	if err := t.coordinatorCounters(out); err != nil {
		return nil, err
	}
	if t.spec.churn {
		if err := t.writeLayers(out); err != nil {
			return nil, err
		}
	}
	cacheMetrics(engines, out)
	return out, nil
}

// shardRefs is the references round-robin enrollment put on shard w.
func shardRefs(refs []*blas.Matrix, w int) []*blas.Matrix {
	var out []*blas.Matrix
	for id := w; id < len(refs); id += shards {
		out = append(out, refs[id])
	}
	return out
}

// shardSearch is one worker's part of a scatter: Search for one query,
// SearchBatch for several.
func shardSearch(e *engine.Engine, feats []*blas.Matrix, kps [][]sift.Keypoint) ([]*engine.Report, error) {
	if len(feats) == 1 {
		r, err := e.Search(feats[0], kps[0])
		if err != nil {
			return nil, err
		}
		return []*engine.Report{r}, nil
	}
	br, err := e.SearchBatch(feats, kps)
	if err != nil {
		return nil, err
	}
	return br.Reports, nil
}

// skew is max over mean of the shards' device-clock latencies.
func skew(perWorker []float64) float64 {
	if m := mean(perWorker); m > 0 {
		worst := 0.0
		for _, v := range perWorker {
			if v > worst {
				worst = v
			}
		}
		return worst / m
	}
	return 0
}

// coordinatorCounters scrapes /metrics for the fault-handling counters,
// which a healthy run leaves at zero.
func (t *restTarget) coordinatorCounters(out map[string]float64) error {
	status, body, err := t.do(0, http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, ok := strings.Cut(line, " ")
		metric, wanted := map[string]string{
			"texid_worker_retries_total":   "cluster.retries",
			"texid_partial_searches_total": "cluster.partials",
		}[name]
		if !ok || !wanted {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[metric] = v
	}
	return nil
}

// writeLayers times the write path with nothing else running: coordinator
// and engine Update, compaction, and the kvstore Set under them. It starts
// from the compacted index layers left, so the measured state does not
// depend on how many writes the timed phase got through.
func (t *restTarget) writeLayers(out map[string]float64) error {
	c, in := t.cluster, t.in
	churn := t.spec.refs - stableRefs
	var updMS, engMS []float64
	for k := 0; k < churn; k++ {
		id := stableRefs + k
		feats, kps := refDescriptors(in.seed, id, 1<<10), keypoints(in.seed, 1<<20+id, refFeats)
		t0 := time.Now()
		if err := c.Update(id, feats, kps); err != nil {
			return fmt.Errorf("uncontended Update(%d): %w", id, err)
		}
		updMS = append(updMS, ms(time.Since(t0)))
	}
	t0 := time.Now()
	if _, err := c.Compact(); err != nil {
		return err
	}
	out["cluster.compact_ms"] = ms(time.Since(t0))
	out["cluster.update_ms"] = median(updMS)

	// The same on one engine: ids enrolled in order land on shard id%shards.
	e := c.Workers()[0]
	for id := stableRefs; id < t.spec.refs; id += shards {
		feats := refDescriptors(in.seed, id, 1<<11)
		t0 := time.Now()
		if err := e.Update(id, feats, nil); err != nil {
			return fmt.Errorf("uncontended engine Update(%d): %w", id, err)
		}
		engMS = append(engMS, ms(time.Since(t0)))
	}
	t0 = time.Now()
	if _, err := e.Compact(); err != nil {
		return err
	}
	out["engine.compact_ms"] = ms(time.Since(t0))
	out["engine.update_ms"] = median(engMS)

	kv, err := kvstore.Dial(t.kv.Addr())
	if err != nil {
		return fmt.Errorf("dialling the kvstore: %w", err)
	}
	defer kv.Close()
	value := wire.Encode(&wire.FeatureRecord{ID: stableRefs, Scale: 1, Features: in.refs[stableRefs], Keypoints: keypoints(in.seed, 1<<20+stableRefs, refFeats)})
	var setErr error
	out["kvstore.set_ms"] = ms(medianOf(kernelReps, func() {
		if err := kv.Set("bench:probe", value); err != nil {
			setErr = err
		}
	}))
	if setErr != nil {
		return fmt.Errorf("kvstore Set: %w", setErr)
	}
	if _, err := kv.Del("bench:probe"); err != nil {
		return fmt.Errorf("kvstore Del: %w", err)
	}
	out["kvstore.value_kb"] = float64(len(value)) / 1024
	keys, err := kv.DBSize()
	if err != nil {
		return fmt.Errorf("kvstore DBSize: %w", err)
	}
	out["kvstore.keys"] = float64(keys)
	return nil
}

// layers is the traced pass of the library workload: SearchImage, then its
// two halves (extract, engine search), then the kernels under them.
func (t *libTarget) layers(tr *tracer, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	ser := make(series)
	in, sys := t.in, t.sys
	e := sys.Engine()
	deadline := time.Now().Add(budget)

	q0 := sys.ExtractQuery(in.qryImgs[0])
	batch := make([]*blas.Matrix, 0, len(in.refImgs))
	for id := 0; id < len(in.refImgs); id++ {
		batch = append(batch, sys.ExtractReference(in.refImgs[id]).Descriptors)
	}
	kt, err := measureKernels(kernelShapes{cfg: e.Config(), batch: batch, queries: []*blas.Matrix{q0.Descriptors}, qryKps: q0.Keypoints})
	if err != nil {
		return nil, err
	}
	sc := searchCalls{matchCalls: 1, queries: 1, compared: float64(len(batch))}

	for i := 0; i < in.requests() && (i < minTraced || time.Now().Before(deadline)); i++ {
		t0 := time.Now()
		if _, err := sys.SearchImage(in.qryImgs[i]); err != nil {
			return nil, fmt.Errorf("traced SearchImage %d: %w", i, err)
		}
		dCall := time.Since(t0)

		var f *sift.Features
		var dExtract time.Duration
		_, objects := allocDelta(func() {
			t0 = time.Now()
			f = sys.ExtractQuery(in.qryImgs[i])
			dExtract = time.Since(t0)
		})

		var rep *engine.Report
		var dSearch time.Duration
		var searchErr error
		allocB, allocN := allocDelta(func() {
			t0 = time.Now()
			rep, searchErr = e.Search(f.Descriptors, f.Keypoints)
			dSearch = time.Since(t0)
		})
		if searchErr != nil {
			return nil, fmt.Errorf("traced engine search %d: %w", i, searchErr)
		}
		dRank := medianOf(kernelReps, func() {
			list := append([]match.SearchResult(nil), rep.Ranked...)
			match.Identify(list, e.Config().Match)
			match.RankResults(list)
		})

		root := tr.root(i, "trace", "System.SearchImage", dCall)
		tr.child(root, "sift", "Extract", dExtract)
		sh := tr.child(root, "engine", "Search", dSearch)
		kt.addKernelSpans(tr, sh, sc)
		tr.child(sh, "match", "Identify+RankResults", dRank)

		ser.add("sift.extract_query_ms", ms(dExtract))
		ser.add("sift.features_per_query", float64(f.Count()))
		ser.add("sift.allocs_per_extract", objects)
		ser.add("engine.search_ms", ms(dSearch))
		ser.add("engine.self_ms", tr.self(sh)/1e3)
		ser.add("engine.compared_per_search", float64(rep.Compared))
		ser.add("engine.allocs_per_search", allocN)
		ser.add("engine.alloc_kb_per_search", allocB/1024)
		ser.add("match.rank_ms", ms(dRank))
		ser.add("trace.unaccounted_ms", tr.self(root)/1e3)
	}
	ser.medians(out)
	kt.metrics(out, sc)

	out["sift.extract_ref_ms"] = ms(medianOf(kernelReps, func() { sys.ExtractReference(in.refImgs[0]) }))
	out["sift.blur_ms"] = ms(medianOf(kernelReps, func() { sift.BlurImage(in.qryImgs[0], 1.6) }))
	desc := q0.Descriptors.Clone()
	out["sift.rootsift_ms"] = ms(medianOf(kernelReps, func() { sift.ApplyRootSIFT(desc) }))
	cacheMetrics([]*engine.Engine{e}, out)
	return out, nil
}
