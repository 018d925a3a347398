package knn

import (
	"texid/internal/blas"
	"texid/internal/gpusim"
)

// Scratch holds the reusable working set of the match kernels: the distance
// matrix, the per-reference top-2 state, and the query-panel staging
// buffers, the panel's packed layout included. Threading one Scratch
// through BuildMultiQuery and Match (or the single-query entries) makes
// steady-state search allocation-free on the hot path.
//
// Every entry point takes an optional *Scratch; nil means a fresh one for
// that call (orFresh), so results are always carved from scratch slabs and
// a nil-scratch call simply pays the allocations a warm scratch avoids.
//
// A Scratch is not safe for concurrent use; the engine owns one per engine
// under its mutex. Pair2NN results returned by the *Scratch variants alias
// the scratch buffers and are only valid until the next call that reuses
// it — callers must consume (score) each batch's results before issuing
// the next batch, which is exactly what the engine's incremental scoring
// loop does.
type Scratch struct {
	// c is the distance matrix, written only by the fallback tiers of
	// blas.GemmTop2 and blas.HGemmTop2; where blas.Top2Fused holds for the
	// engine's precision and accumulator mode it is never allocated.
	c      blas.Matrix
	best   []float32
	second []float32
	idx    []int32
	pairs  []Pair2NN
	multi  [][]Pair2NN
	// Query-panel staging (BuildMultiQuery): the panel shell, the operand
	// header lists and the concatenation buffers of a multi-query panel.
	mq     MultiQuery
	hdrF32 []*blas.Matrix
	hdrF16 []*blas.HalfMatrix
	catF32 blas.Matrix
	catF16 blas.HalfMatrix
	// mqPack is mq's operand packed for the fused native tiers, packed
	// once per staged panel and read by every batch's Match.
	mqPack blas.Panel
	// one is the B_q = 1 panel the single-query entries wrap their query
	// in; it is separate from mq (and packs into onePack, not mqPack) so a
	// prepared panel survives those calls.
	one     MultiQuery
	oneQ    [1]*Query
	onePack blas.Panel
	// candIDs holds the gathered reference ids of a slot set.
	candIDs []int
	// stage is the FP16 GEMM's float32 staging, filled per Match call only
	// on the kernel tiers that widen (see blas.Staging).
	stage blas.Staging
}

// orFresh substitutes a fresh Scratch for nil.
func (sc *Scratch) orFresh() *Scratch {
	if sc == nil {
		return &Scratch{}
	}
	return sc
}

// panelOf wraps one staged query as a B_q = 1 panel without copying it.
func (sc *Scratch) panelOf(q *Query) *MultiQuery {
	sc.oneQ[0] = q
	sc.one = lonePanel(sc.oneQ[:], &sc.onePack)
	return &sc.one
}

// oneRow presents a single query's results in Match's [query][reference]
// shape.
func (sc *Scratch) oneRow(res []Pair2NN) [][]Pair2NN {
	sc.multi = append(sc.multi[:0], res)
	return sc.multi
}

// candSlots gathers the reference ids of the given batch slots into the
// reusable id buffer.
func (sc *Scratch) candSlots(rb *RefBatch, slots []int32) []int {
	sc.candIDs = sc.candIDs[:0]
	for _, s := range slots {
		sc.candIDs = append(sc.candIDs, rb.IDs[s])
	}
	return sc.candIDs
}

// grow ensures the top-2 slabs can hold cnt result rows of width n.
func (sc *Scratch) grow(cnt, n int) {
	if cap(sc.best) < cnt*n {
		sc.best = make([]float32, cnt*n)
		sc.second = make([]float32, cnt*n)
		sc.idx = make([]int32, cnt*n)
	}
	sc.best = sc.best[:cnt*n]
	sc.second = sc.second[:cnt*n]
	sc.idx = sc.idx[:cnt*n]
}

// pairSlab returns B result shells for one query: multiSlab's only row.
func (sc *Scratch) pairSlab(ids []int, n int, phantom bool) []Pair2NN {
	return sc.multiSlab(ids, 1, n, phantom)[0]
}

// multiSlab returns Bq rows of B result shells each. For real matches the
// Best/Second/BestIdx slices are carved out of the scratch slabs, block
// major: reference b's results for query qi sit at (b·Bq + qi)·n, so block
// b's row of the slab covers every column of the B_q·n-column query panel,
// which is the layout blas.GemmTop2 writes. Phantom shells carry the
// reference ID only.
func (sc *Scratch) multiSlab(ids []int, Bq, n int, phantom bool) [][]Pair2NN {
	B := len(ids)
	if cap(sc.multi) < Bq {
		sc.multi = make([][]Pair2NN, Bq)
	}
	sc.multi = sc.multi[:Bq]
	if cap(sc.pairs) < Bq*B {
		sc.pairs = make([]Pair2NN, Bq*B)
	}
	sc.pairs = sc.pairs[:Bq*B]
	if !phantom {
		sc.grow(Bq*B, n)
	}
	for qi := 0; qi < Bq; qi++ {
		row := sc.pairs[qi*B : (qi+1)*B : (qi+1)*B]
		for b, id := range ids {
			if phantom {
				row[b] = Pair2NN{RefID: id}
				continue
			}
			at := b*Bq + qi
			row[b] = Pair2NN{
				RefID:   id,
				Best:    sc.best[at*n : (at+1)*n : (at+1)*n],
				Second:  sc.second[at*n : (at+1)*n : (at+1)*n],
				BestIdx: sc.idx[at*n : (at+1)*n : (at+1)*n],
			}
		}
		sc.multi[qi] = row
	}
	return sc.multi
}

// QueryScratch recycles the buffers NewQuery stages per search: the squared
// norm vector, the binary16 conversion, the zero-padded copy of a short
// query, and the Query shell itself. Owned by the engine under its mutex.
type QueryScratch struct {
	norms []float32
	half  blas.HalfMatrix
	pad   blas.Matrix
	q     Query
}

// Padded returns mat widened with zero columns to n, copied into qs's pad
// buffer (valid until the next Padded call); a mat that already has n
// columns is returned as is. Zero descriptors are harmless under RootSIFT
// matching: they sit at distance sqrt(2) from every unit-norm reference
// feature, so best equals second-best and the ratio test always rejects
// them.
func (qs *QueryScratch) Padded(mat *blas.Matrix, n int) *blas.Matrix {
	if mat.Cols >= n {
		return mat
	}
	need := mat.Rows * n
	if cap(qs.pad.Data) < need {
		qs.pad.Data = make([]float32, need)
	}
	qs.pad = blas.Matrix{Rows: mat.Rows, Cols: n, Stride: mat.Rows, Data: qs.pad.Data[:need]}
	for j := 0; j < n; j++ {
		if col := qs.pad.Col(j); j < mat.Cols {
			copy(col, mat.Col(j))
		} else {
			clear(col)
		}
	}
	return &qs.pad
}

// NewQueryScratch is NewQuery staging into qs's buffers (fresh ones when qs
// is nil). The returned Query (and its matrices) alias qs and are valid
// until the next NewQueryScratch call with the same qs. The binary16
// conversion (and its device bytes) are only paid when the engine precision
// is FP16.
func NewQueryScratch(dev *gpusim.Device, mat *blas.Matrix, prec gpusim.Precision, scale float32, qs *QueryScratch) (*Query, error) {
	if qs == nil {
		qs = &QueryScratch{}
	}
	if scale == 0 {
		scale = 1
	}
	qs.norms = blas.SquaredNormsInto(mat, qs.norms)
	qs.q = Query{
		dev:   dev,
		N:     mat.Cols,
		D:     mat.Rows,
		F32:   mat,
		Norms: qs.norms,
		Scale: scale,
		bytes: queryBytes(mat.Cols, mat.Rows, prec),
	}
	if prec == gpusim.FP16 {
		qs.q.Overflow = blas.HalfFromMatrixInto(mat, scale, &qs.half)
		qs.q.F16 = &qs.half
	}
	if err := dev.Alloc(qs.q.bytes); err != nil {
		return nil, err
	}
	return &qs.q, nil
}
