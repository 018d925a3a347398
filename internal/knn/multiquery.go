package knn

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/gpusim"
)

// MultiQuery is a staged query panel: the feature matrices of B_q query
// images side by side as one d×(B_q·n) operand, so a single GEMM of shape
// (B_r·m)×(B_q·n) serves every (reference, query) pair (the Sec. 5.3
// trade-off the paper defers). It is built once per search and reused
// across every reference batch, and so is the k-interleaved layout the
// fused kernels' native tiers read (pack): one pack per pass, not one per
// batch. A lone query is the B_q = 1 panel and aliases the query's own
// matrices — nothing is copied. The panel belongs to the Scratch it was
// staged in: Match writes its pack, so one panel must not be matched from
// two goroutines at once.
type MultiQuery struct {
	queries []*Query
	n       int // features per query (the panel must be rectangular)
	phantom bool
	catF32  *blas.Matrix
	catF16  *blas.HalfMatrix
	// pack is the panel laid out for the fused kernels' native tiers, in
	// storage the owning Scratch keeps; packed says it has been packed
	// since the panel was staged.
	pack   *blas.Panel
	packed bool
}

// panel returns the operand in prec packed for the native tier of
// blas.GemmTop2 / HGemmTop2, packing it on the first call of the pass that
// runs that tier, so every batch of the pass reuses one pack. A staged
// panel holds one precision, so the first pack is the only one. It returns
// nil where the fused native tier does not run: the kernels then need no
// pack.
func (mq *MultiQuery) panel(prec gpusim.Precision, mode blas.AccumMode) *blas.Panel {
	fp16 := prec == gpusim.FP16
	switch {
	case !blas.Top2Fused(fp16, mode):
		return nil
	case mq.packed:
	case fp16:
		mq.pack.PackHalf(mq.catF16)
	default:
		mq.pack.Pack(mq.catF32)
	}
	mq.packed = true
	return mq.pack
}

// BuildMultiQuery validates a query batch and stages its panel in sc's
// buffers (fresh ones when sc is nil). The result aliases sc, the queries
// slice and the queries' matrices, and is valid until sc's next
// BuildMultiQuery call.
func BuildMultiQuery(queries []*Query, prec gpusim.Precision, sc *Scratch) (*MultiQuery, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("knn: empty query batch")
	}
	sc = sc.orFresh()
	mq := &sc.mq
	if len(queries) == 1 {
		*mq = lonePanel(queries, &sc.mqPack)
		return mq, nil
	}
	*mq = MultiQuery{queries: queries, n: queries[0].N, pack: &sc.mqPack}
	for i, q := range queries {
		if q.N != mq.n {
			return nil, fmt.Errorf("knn: ragged query batch: query %d has %d features, want %d", i, q.N, mq.n)
		}
		mq.phantom = mq.phantom || q.phantom
	}
	switch {
	case mq.phantom:
	case prec == gpusim.FP16:
		sc.hdrF16 = sc.hdrF16[:0]
		for _, q := range queries {
			sc.hdrF16 = append(sc.hdrF16, q.F16)
		}
		mq.catF16 = blas.ConcatHalfColumnsInto(&sc.catF16, sc.hdrF16...)
	default:
		sc.hdrF32 = sc.hdrF32[:0]
		for _, q := range queries {
			sc.hdrF32 = append(sc.hdrF32, q.F32)
		}
		mq.catF32 = blas.ConcatColumnsInto(&sc.catF32, sc.hdrF32...)
		clear(sc.hdrF32) // copied; do not pin the callers' matrices
	}
	return mq, nil
}

// lonePanel is the B_q = 1 panel over a one-element queries slice, packing
// into pack. It aliases the query's own matrices (nil for a phantom query).
func lonePanel(queries []*Query, pack *blas.Panel) MultiQuery {
	q := queries[0]
	return MultiQuery{queries: queries, n: q.N, phantom: q.phantom, catF32: q.F32, catF16: q.F16, pack: pack}
}
