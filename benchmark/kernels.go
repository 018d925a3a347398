package main

import (
	"fmt"
	"time"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
)

// kernelReps is how many times each shape-equal kernel call is replayed;
// the median is reported.
const kernelReps = 5

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// kernelShapes is the data one shard's search runs its kernels over: one
// sealed batch of its references and the pooled query (or query batch).
type kernelShapes struct {
	cfg      engine.Config
	batch    []*blas.Matrix  // one BatchSize worth of reference matrices
	queries  []*blas.Matrix  // one query, or the queries of one batch request
	qryKps   []sift.Keypoint // keypoints of queries[0]
	shardAll []*blas.Matrix  // every reference of the shard (prefilter panel); nil without pruning
	thresh   binq.Thresholds // the shard's learned thresholds; nil without pruning
}

// kernelTimes are the outside-in timings of the knn, blas, binq and match
// entry points at the workload's shapes. Zero means the workload's search
// never makes that call.
type kernelTimes struct {
	stageQuery, matchBatch, matchCandidates, matchMultiQuery time.Duration
	hgemm, gemm, top2, stageHalf                             time.Duration
	gemmFlops                                                float64 // of the one hgemm/gemm call timed
	scorePair                                                time.Duration
	scan, sel, encode                                        time.Duration
	codes                                                    int
}

// measureKernels replays the kernel calls of one shard search on the
// benchmark's own device and buffers. The calls are shape-equal to the
// engine's, not the engine's own: spans inside the program are a later
// change.
func measureKernels(ks kernelShapes) (kernelTimes, error) {
	var kt kernelTimes
	cfg := ks.cfg
	dev := gpusim.NewDevice(cfg.Spec)
	stream := dev.NewStream()
	ids := make([]int, len(ks.batch))
	for i := range ids {
		ids[i] = i
	}
	rb, err := knn.NewRefBatch(dev, ids, ks.batch, cfg.Precision, cfg.Scale, false)
	if err != nil {
		return kt, fmt.Errorf("staging a reference batch: %w", err)
	}
	opts := knn.Options{Algorithm: cfg.Algorithm, Precision: cfg.Precision, Scale: cfg.Scale, Accum: cfg.Accum}
	var sc knn.Scratch
	var fail error
	keep := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	// Query staging, as Engine.Search does once per search.
	var qs knn.QueryScratch
	kt.stageQuery = medianOf(kernelReps, func() {
		q, err := knn.NewQueryScratch(dev, ks.queries[0], cfg.Precision, cfg.Scale, &qs)
		keep(err)
		if err == nil {
			q.Free()
		}
	})
	q, err := knn.NewQueryScratch(dev, ks.queries[0], cfg.Precision, cfg.Scale, &qs)
	if err != nil {
		return kt, fmt.Errorf("staging the query: %w", err)
	}
	defer q.Free()

	var pairs []knn.Pair2NN
	switch {
	case len(ks.queries) > 1:
		staged := make([]*knn.Query, len(ks.queries))
		for i, m := range ks.queries {
			sq, err := knn.NewQuery(dev, m, cfg.Precision, cfg.Scale)
			if err != nil {
				return kt, fmt.Errorf("staging query %d: %w", i, err)
			}
			defer sq.Free()
			staged[i] = sq
		}
		kt.matchMultiQuery = medianOf(kernelReps, func() {
			mq, err := knn.BuildMultiQuery(staged, cfg.Precision, &sc)
			keep(err)
			if err != nil {
				return
			}
			res, err := knn.MatchMultiQueryInto(stream, rb, mq, opts, &sc)
			keep(err)
			if err == nil {
				pairs = res[0]
			}
		})
	case cfg.PruneC > 0:
		slots := make([]int32, cfg.PruneC)
		for i := range slots {
			slots[i] = int32(i * len(ks.batch) / cfg.PruneC)
		}
		kt.matchCandidates = medianOf(kernelReps, func() {
			res, err := knn.MatchCandidatesScratch(stream, rb, q, slots, opts, &sc)
			keep(err)
			pairs = res
		})
	default:
		kt.matchBatch = medianOf(kernelReps, func() {
			res, err := knn.MatchBatchScratch(stream, rb, q, opts, &sc)
			keep(err)
			pairs = res
		})
	}
	if fail != nil {
		return kt, fmt.Errorf("replaying the match kernel: %w", fail)
	}

	// Post-processing of one (query, reference) pair. References keep no
	// keypoints in the production configuration.
	if len(pairs) > 0 {
		perBatch := medianOf(kernelReps, func() {
			for _, p := range pairs {
				match.PairScore(p, nil, ks.qryKps, cfg.Match)
			}
		})
		kt.scorePair = perBatch / time.Duration(len(pairs))
	}

	// The GEMM and top-2 under the match call, at its panel shape: every
	// image of the batch, or only the reranked candidates when pruning.
	images := len(ks.batch)
	if cfg.PruneC > 0 {
		images = cfg.PruneC
	}
	m, n, d := images*cfg.RefFeatures, len(ks.queries)*ks.queries[0].Cols, cfg.Dim
	C := blas.NewMatrix(m, n)
	kt.gemmFlops = 2 * float64(m) * float64(n) * float64(d)
	if cfg.Precision == gpusim.FP16 {
		A := rb.F16.Slice(0, m)
		kt.hgemm = medianOf(kernelReps, func() { blas.HGemmTN(-2, A, q.F16, cfg.Accum, C) })
		var staged []float32
		kt.stageHalf = medianOf(kernelReps, func() { staged = blas.StageHalf(q.F16, staged) })
	} else {
		Q := blas.ConcatColumns(ks.queries...)
		A := rb.F32.SliceView(0, m)
		kt.gemm = medianOf(kernelReps, func() { blas.GemmTN(-2, &A, Q, 0, C) })
	}
	best, second, idx := make([][]float32, images), make([][]float32, images), make([][]int32, images)
	for b := range best {
		best[b], second[b], idx[b] = make([]float32, n), make([]float32, n), make([]int32, n)
	}
	kt.top2 = medianOf(kernelReps, func() {
		blas.Parallel(images, func(b int) {
			blas.Top2AddRows(C, nil, b*cfg.RefFeatures, (b+1)*cfg.RefFeatures, best[b], second[b], idx[b])
		})
	})

	if cfg.PruneC > 0 {
		kt.encode = medianOf(kernelReps, func() { ks.thresh.Encode(ks.shardAll[0], nil) })
		panel := make([]binq.Code, 0, len(ks.shardAll)*cfg.RefFeatures)
		for _, ref := range ks.shardAll {
			panel = ks.thresh.Encode(ref, panel)
		}
		kt.codes = len(panel)
		probeCols := cfg.PruneProbes
		if probeCols == 0 {
			probeCols = 64 // engine.Config.PruneProbes default
		}
		q0 := ks.queries[0]
		view := blas.Matrix{Rows: q0.Rows, Cols: probeCols, Stride: q0.Stride, Data: q0.Data}
		probes := ks.thresh.Encode(&view, nil)
		scores := make([]uint32, len(ks.shardAll))
		var scanner binq.Scanner
		kt.scan = medianOf(kernelReps, func() { scanner.Scan(panel, cfg.RefFeatures, probes, scores) })
		var top binq.TopC
		var picked []int32
		kt.sel = medianOf(kernelReps, func() {
			top.Reset(cfg.PruneC)
			for g, s := range scores {
				top.Offer(int32(g), s)
			}
			picked = top.AppendSorted(picked[:0])
		})
	}
	rb.Free()
	rb.FreeCodes()
	rb.ReleasePanel()
	return kt, nil
}

// searchCalls is how many of each kernel call one shard search makes.
type searchCalls struct {
	matchCalls int // MatchBatch / MatchMultiQuery calls (sealed batches); 1 rerank when pruning
	queries    int
	compared   float64 // references scored per search on this shard
}

// addKernelSpans lays the replayed kernel calls out under a shard's search
// span, in the order Engine.Search makes them.
func (kt kernelTimes) addKernelSpans(tr *tracer, parent int, sc searchCalls) {
	add := func(layer, name string, d time.Duration, times int) {
		for i := 0; i < times && d > 0; i++ {
			tr.place(parent, layer, name, us(d), false, kernelReps)
		}
	}
	add("knn", "NewQueryScratch", kt.stageQuery, sc.queries)
	add("binq", "Scanner.Scan", kt.scan, 1)
	add("binq", "TopC", kt.sel, 1)
	add("knn", "MatchBatchScratch", kt.matchBatch, sc.matchCalls)
	add("knn", "MatchCandidatesScratch", kt.matchCandidates, 1)
	add("knn", "MatchMultiQueryInto", kt.matchMultiQuery, sc.matchCalls)
	add("match", "PairScore", time.Duration(float64(kt.scorePair)*sc.compared*float64(sc.queries)), 1)
}

// metrics adds the kernel timings to out under their fixed names.
func (kt kernelTimes) metrics(out map[string]float64, sc searchCalls) {
	out["knn.stage_query_ms"] = ms(kt.stageQuery)
	out["knn.match_batch_ms"] = ms(kt.matchBatch)
	out["knn.match_candidates_ms"] = ms(kt.matchCandidates)
	out["knn.match_multiquery_ms"] = ms(kt.matchMultiQuery)
	out["blas.hgemm_ms"] = ms(kt.hgemm)
	out["blas.gemm_ms"] = ms(kt.gemm)
	if kt.hgemm > 0 {
		out["blas.hgemm_gflops"] = kt.gemmFlops / kt.hgemm.Seconds() / 1e9
	}
	if kt.gemm > 0 {
		out["blas.gemm_gflops"] = kt.gemmFlops / kt.gemm.Seconds() / 1e9
	}
	out["blas.top2_ms"] = ms(kt.top2)
	out["blas.stage_half_ms"] = ms(kt.stageHalf)
	out["match.score_ms"] = ms(kt.scorePair) * sc.compared * float64(sc.queries)
	out["binq.scan_ms"] = ms(kt.scan)
	if kt.scan > 0 {
		out["binq.codes_per_s"] = float64(kt.codes) / kt.scan.Seconds()
	}
	out["binq.select_ms"] = ms(kt.sel)
	out["binq.encode_ms"] = ms(kt.encode)
}
