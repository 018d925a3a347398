package knn

import (
	"fmt"
	"math"

	"texid/internal/blas"
	"texid/internal/gpusim"
)

// MatchBatchScratch runs the selected 2-NN variant for every reference
// image in the batch against one query, enqueuing the corresponding
// operations on stream and returning per-reference results (phantom inputs
// produce results with nil slices: timing only). The distance matrix and
// result slabs come from the optional reusable sc, so steady-state search
// allocates nothing per batch. Results alias sc and must be consumed
// before the next call reusing it; a nil sc means a fresh Scratch for this
// call.
func MatchBatchScratch(stream *gpusim.Stream, rb *RefBatch, q *Query, opts Options, sc *Scratch) ([]Pair2NN, error) {
	sc = sc.orFresh()
	return firstQuery(Match(stream, rb, sc.panelOf(q), nil, nil, opts, sc))
}

// MatchCandidatesScratch is MatchBatchScratch restricted to the given slots
// (ascending indices into rb's images): one Pair2NN per slot, in slot
// order, bitwise identical to the corresponding MatchBatchScratch entries.
// RootSIFT only.
func MatchCandidatesScratch(stream *gpusim.Stream, rb *RefBatch, q *Query, slots []int32, opts Options, sc *Scratch) ([]Pair2NN, error) {
	if len(slots) == 0 {
		return nil, nil // an empty candidate set is not Match's nil "whole batch"
	}
	sc = sc.orFresh()
	return firstQuery(Match(stream, rb, sc.panelOf(q), slots, nil, opts, sc))
}

// MatchMultiQueryInto matches a prepared query panel against the whole
// batch (RootSIFT only). The result is indexed [query][reference] and
// aliases sc like every *Scratch variant.
func MatchMultiQueryInto(stream *gpusim.Stream, rb *RefBatch, mq *MultiQuery, opts Options, sc *Scratch) ([][]Pair2NN, error) {
	if opts.Algorithm != RootSIFT {
		return nil, fmt.Errorf("knn: multi-query batching supports the RootSIFT path only, got %v", opts.Algorithm)
	}
	return Match(stream, rb, mq, nil, nil, opts, sc)
}

func firstQuery(res [][]Pair2NN, err error) ([]Pair2NN, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Match is the one entry every search shape goes through: the 2-NN of a
// staged query panel (BuildMultiQuery; B_q >= 1 queries of n columns each)
// against a reference batch, restricted to slots (ascending image indices
// into rb) when slots is non-nil. A nil slot set means the whole batch.
// The result is indexed [query][reference or slot position]; results alias
// sc and must be consumed before the next call reusing it. A non-nil need
// ([reference or slot position][query], len(ids)·B_q) names the results the
// caller reads: the others are left unspecified, and the fused kernels'
// native tiers skip the cells that only they would fill (blas.Need). The
// device is charged for the whole product either way. Only RootSIFT
// (Algorithm 2) takes panels wider than one query, a slot set or a need
// mask; the Algorithm-1 and baseline variants match one query against
// whole batches. Match writes mq's packed layout on its first call for the
// panel, so one staged panel must not be matched from two goroutines at
// once, even with separate Scratches.
func Match(stream *gpusim.Stream, rb *RefBatch, mq *MultiQuery, slots []int32, need []bool, opts Options, sc *Scratch) ([][]Pair2NN, error) {
	for i, q := range mq.queries {
		if q.D != rb.D {
			return nil, fmt.Errorf("knn: dimension mismatch: refs d=%d, query %d d=%d", rb.D, i, q.D)
		}
	}
	sc = sc.orFresh()
	if opts.Algorithm == RootSIFT {
		return rootSIFT2NN(stream, rb, mq, slots, need, opts, sc)
	}
	if len(mq.queries) != 1 || slots != nil || need != nil {
		return nil, fmt.Errorf("knn: query batching and candidate pruning support the RootSIFT path only, got %v", opts.Algorithm)
	}
	var res []Pair2NN
	var err error
	switch opts.Algorithm {
	case Baseline:
		res, err = matchBaseline(stream, rb, mq.queries[0])
	case Garcia, Eq1Top2:
		res, err = matchEq1(stream, rb, mq, opts, sc)
	default:
		return nil, fmt.Errorf("knn: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	return sc.oneRow(res), nil
}

// matchBaseline models the OpenCV-CUDA path: one monolithic brute-force
// kernel per reference image (no batching, no GEMM decomposition).
func matchBaseline(stream *gpusim.Stream, rb *RefBatch, q *Query) ([]Pair2NN, error) {
	phantom := rb.phantom || q.phantom
	results := make([]Pair2NN, rb.Count())
	for b := range results {
		if phantom {
			results[b] = Pair2NN{RefID: rb.IDs[b]}
		} else {
			results[b] = bruteForce2NN(rb.IDs[b], rb.F32.Slice(b*rb.M, (b+1)*rb.M), q.F32)
		}
		stream.BaselineMatch(rb.M, q.N, rb.D)
		stream.CopyD2H(resultBytes(q.N, gpusim.FP32), false)
		stream.HostPost(1, gpusim.FP32)
	}
	return results, nil
}

// matchEq1 runs Algorithm 1: GEMM, add N_R, sort (insertion or top-2
// scan), add N_Q + sqrt, D2H. Used by both the Garcia reference variant
// and the paper's top-2 optimization.
func matchEq1(stream *gpusim.Stream, rb *RefBatch, mq *MultiQuery, opts Options, sc *Scratch) ([]Pair2NN, error) {
	q := mq.queries[0]
	B := rb.Count()
	m, n, d := rb.M, q.N, rb.D
	prec := opts.Precision
	phantom := rb.phantom || q.phantom
	if prec == gpusim.FP16 && rb.F16 == nil && !rb.phantom {
		return nil, fmt.Errorf("knn: FP16 match on an FP32 reference batch")
	}
	if prec == gpusim.FP16 && q.F16 == nil && !q.phantom {
		return nil, fmt.Errorf("knn: FP16 match on an FP32-staged query (stage with Precision FP16)")
	}
	if rb.Norms == nil && !rb.phantom {
		return nil, fmt.Errorf("knn: Algorithm 1 requires reference norms (withNorms=true)")
	}

	results := sc.pairSlab(rb.IDs, n, phantom)
	if !phantom {
		// Steps 1-5: norms (amortized/offline for refs, tiny for query),
		// GEMM, add N_R, per-column top-2 selection within each reference
		// block. The row add of N_R rides in the selection pass — fused
		// into the GEMM tile on the native tiers, an on-the-fly add in
		// Top2AddRows otherwise — though the device below still charges
		// each step.
		if prec == gpusim.FP16 {
			// 1/s² undoes the feature scale: the GEMM holds -2·s²·RᵀQ.
			blas.HGemmTop2(-2, 1/(rb.Scale*q.Scale), rb.F16, m, nil, q.F16, mq.panel(prec, opts.Accum), blas.Need{},
				opts.Accum, rb.Norms, sc.best, sc.second, sc.idx, &sc.c, &sc.stage)
		} else {
			blas.GemmTop2(-2, rb.F32, m, nil, q.F32, mq.panel(prec, opts.Accum), blas.Need{},
				rb.Norms, sc.best, sc.second, sc.idx, &sc.c)
		}
		// Steps 6-7: add N_Q to the two survivors and square-root (fused).
		for b := 0; b < B; b++ {
			finishDistances(&results[b], q.Norms)
		}
	}

	// The device charges each pipeline step separately, phantom or not.
	stream.Gemm(B*m, n, d, prec)
	stream.Elementwise("elementwise/addNR", 2*int64(B)*int64(m)*int64(n)*int64(prec.ElemBytes()))
	if opts.Algorithm == Garcia {
		stream.InsertionSort(m, n, B, prec)
	} else {
		stream.Top2Scan(m, n, B, prec)
	}
	stream.Elementwise("elementwise/addNQ-sqrt", 2*int64(B)*2*int64(n)*int64(prec.ElemBytes()))
	// Step 8: move the 2×n result and indices to host, then post-process.
	stream.CopyD2H(int64(B)*resultBytes(n, prec), false)
	stream.HostPost(B, prec)
	return results, nil
}

// rootSIFT2NN runs Algorithm 2 — the only RootSIFT GEMM → top-2 → sqrt
// body in the package. With unit-norm RootSIFT features ρ² = 2 + A where
// A = -2·RᵀQ, so the pipeline is one GEMM of shape (blocks·m)×(B_q·n) plus
// one fused top-2/sqrt kernel.
//
// Whole batch (slots == nil) or slot set, each precision is one call over
// the resident operand, read from storage: a slot set names the selected
// images' column blocks (their gather is charged as one elementwise pass),
// and every tier's per-element value depends only on the two operand
// columns, so a slot's results are bit for bit its whole-batch ones.
//
// Each precision is one call that returns the top-2 of every (block, query
// column) straight into sc's result slabs: blas.GemmTop2 (FP32) or
// blas.HGemmTop2 (FP16, which also undoes the feature scale). On their
// native tiers the distance matrix is never written, the query panel is
// read as packed once for the whole pass (MultiQuery.panel), and a need
// mask skips the cells no query reads; elsewhere it is the GEMM into sc's
// matrix, then Top2AddRows. Whether anything FP16 is widened — into sc's
// staging — is blas's choice of kernel tier; nothing widened outlives the
// call.
//
// The results alias sc; they are valid until the next call reusing it.
func rootSIFT2NN(stream *gpusim.Stream, rb *RefBatch, mq *MultiQuery, slots []int32, need []bool, opts Options, sc *Scratch) ([][]Pair2NN, error) {
	Bq := len(mq.queries)
	m, n, d := rb.M, mq.n, rb.D
	prec := opts.Precision
	phantom := rb.phantom || mq.phantom
	if prec == gpusim.FP16 && !phantom && (rb.F16 == nil || mq.catF16 == nil) {
		return nil, fmt.Errorf("knn: FP16 match on FP32-staged operands (stage with Precision FP16)")
	}
	ids := rb.IDs
	if slots != nil {
		ids = sc.candSlots(rb, slots)
	}
	nb := len(ids) // reference blocks matched: the whole batch, or one per slot

	if need != nil && len(need) != nb*Bq {
		return nil, fmt.Errorf("knn: need mask of %d cells for %d references × %d queries", len(need), nb, Bq)
	}

	results := sc.multiSlab(ids, Bq, n, phantom)
	if !phantom {
		pk, cells := mq.panel(prec, opts.Accum), blas.Need{Cols: n, Cells: need}
		if prec == gpusim.FP16 {
			// 1/s² undoes the feature scale: the GEMM holds -2·s²·RᵀQ.
			blas.HGemmTop2(-2, 1/(rb.Scale*mq.queries[0].Scale), rb.F16, m, slots, mq.catF16, pk, cells,
				opts.Accum, nil, sc.best, sc.second, sc.idx, &sc.c, &sc.stage)
		} else {
			blas.GemmTop2(-2, rb.F32, m, slots, mq.catF32, pk, cells, nil, sc.best, sc.second, sc.idx, &sc.c)
		}
		// Step 3: sqrt(2 + a) on the two survivors of every (block, query)
		// cell that is read.
		for cell := range nb * Bq {
			if need != nil && !need[cell] {
				continue
			}
			for i := cell * n; i < (cell+1)*n; i++ {
				sc.best[i] = sqrt32(2 + sc.best[i])
				sc.second[i] = sqrt32(2 + sc.second[i])
			}
		}
	}

	// The device charges the same ops in the same order, phantom or not.
	if slots != nil {
		stream.Elementwise("binq/gather", 2*int64(nb)*int64(m)*int64(d)*int64(prec.ElemBytes()))
	}
	stream.Gemm(nb*m, Bq*n, d, prec)
	stream.Top2Scan(m, n*Bq, nb, prec)
	stream.CopyD2H(int64(nb)*int64(Bq)*resultBytes(n, prec), false)
	stream.HostPost(nb*Bq, prec)
	return results, nil
}

// bruteForce2NN is the functional baseline: direct O(d·m·n) squared
// distances plus scan. It is also the oracle the tests compare against.
func bruteForce2NN(refID int, R, Q *blas.Matrix) Pair2NN {
	n := Q.Cols
	r := Pair2NN{
		RefID:   refID,
		Best:    make([]float32, n),
		Second:  make([]float32, n),
		BestIdx: make([]int32, n),
	}
	for j := 0; j < n; j++ {
		qc := Q.Col(j)
		best, second := float32(math.MaxFloat32), float32(math.MaxFloat32)
		bestIdx := int32(-1)
		for i := 0; i < R.Cols; i++ {
			rc := R.Col(i)
			var d float32
			for l := range qc {
				diff := rc[l] - qc[l]
				d += diff * diff
			}
			if d < best {
				second = best
				best = d
				bestIdx = int32(i)
			} else if d < second {
				second = d
			}
		}
		r.Best[j] = sqrt32(best)
		r.Second[j] = sqrt32(second)
		r.BestIdx[j] = bestIdx
	}
	return r
}

// finishDistances applies Algorithm 1 steps 6-7 to one result: add N_Q,
// clamp tiny negatives from cancellation, square-root. FP16 overflow
// (±Inf) propagates to +Inf distances.
func finishDistances(r *Pair2NN, qNorms []float32) {
	for j := range r.Best {
		r.Best[j] = sqrt32(r.Best[j] + qNorms[j])
		r.Second[j] = sqrt32(r.Second[j] + qNorms[j])
	}
}

// sqrt32 is float32 sqrt with negative-cancellation clamping; -Inf (an
// overflowed FP16 −2RᵀQ term) maps to +Inf distance so overflow is
// detectable downstream.
func sqrt32(v float32) float32 {
	if math.IsInf(float64(v), 0) {
		return float32(math.Inf(1))
	}
	if v < 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
