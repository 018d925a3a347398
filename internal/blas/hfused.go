package blas

import (
	"math"

	"texid/internal/half"
)

// HGemmTop2 is the FP16 twin of GemmTop2: HGemmTNBlocks fused with
// Top2AddRows. For every reference block of A and every column j of B it
// returns at best, second and bestIdx[b*B.Cols+j] the best value, the
// second-best value and the best row offset of block b of
// C = inv·(alpha·AᵀB) (plus norms, when given). Blocks, width and norms
// mean what they mean to GemmTop2; inv is the reciprocal of the operands'
// feature scales, applied after alpha (the unscale of a scaled binary16
// operand pair).
//
// The result is bit for bit what HGemmTNBlocks into a matrix, then C *= inv
// (skipped when inv is 1), then Top2AddRows over each block returns, on
// every tier. With AVX512-FP16 and AccumFP16 the native tier folds each
// binary16 tile of C into the running top-2 while it is still in
// registers, so the matrix is never written; elsewhere (AccumFP32, the
// F16C and portable tiers, k = 0) the entry is literally those three steps
// into c, reshaped and grown only when too small (nil = a fresh one), with
// st (nil = pooled) as HGemmTNBlocks' staging. pk and need mean what they
// mean to GemmTop2, pk packed by pk.PackHalf(B).
func HGemmTop2(alpha, inv float32, A *HalfMatrix, width int, blocks []int32, B *HalfMatrix, pk *Panel, need Need, mode AccumMode, norms, best, second []float32, bestIdx []int32, c *Matrix, st *Staging) {
	nb := checkTop2("HGemmTop2", A.Rows, A.Cols, width, blocks, B.Rows, B.Cols, need, norms, best, second, bestIdx)
	if nb == 0 || B.Cols == 0 {
		return
	}
	if Top2Fused(true, mode) && A.Rows > 0 {
		pk.check(B.Rows, B.Cols, true)
		hgemmTop2Native(alpha, inv, A, width, blocks, pk.f16, B.Rows, B.Cols, need, norms, best, second, bestIdx)
		return
	}
	if c == nil {
		c = new(Matrix)
	}
	hgemmTop2Fallback(alpha, inv, A, width, blocks, B, mode, norms, best, second, bestIdx, c, st)
}

// hgemmTop2Fallback is HGemmTop2 on every tier but the native one, and the
// oracle the native tier is pinned to: HGemmTNBlocks of the selected
// blocks into c, the unscale, then Top2AddRows over each block's rows.
func hgemmTop2Fallback(alpha, inv float32, A *HalfMatrix, width int, blocks []int32, B *HalfMatrix, mode AccumMode, norms, best, second []float32, bestIdx []int32, c *Matrix, st *Staging) {
	rows := numBlocks(A.Cols, width, blocks) * width
	reshape(c, rows, B.Cols)
	HGemmTNBlocks(alpha, A, width, blocks, B, mode, c, st)
	// x·1 == x for every float32 a kernel emits, NaN payloads included, so
	// the skip is bit-identical.
	if inv != 1 {
		for i := range c.Data {
			c.Data[i] *= inv
		}
	}
	top2Blocks(c, width, blocks, norms, best, second, bestIdx)
}

// hgemmTop2Native is the AVX512-FP16 tier, gemmTop2Native's shape in
// binary16 over B (k×n) packed in bp: one cell per (block, panel) that
// need names, cells of a block adjacent so its A columns stay in cache. A
// cell starts its lanes at (MaxFloat32, MaxFloat32, −1) in the outputs and
// folds the block's row tiles into them in ascending row order
// (hgemmTop2Tile). The partition depends only on the shape.
func hgemmTop2Native(alpha, inv float32, A *HalfMatrix, width int, blocks []int32, bp half.Vector, k, n int, need Need, norms, best, second []float32, bestIdx []int32) {
	nb := numBlocks(A.Cols, width, blocks)
	np := (n + top2Cols - 1) / top2Cols
	panel := top2Cols * k
	astride := uintptr(A.Stride) * 2
	Parallel(nb*np, func(cell int) {
		bi, p := cell/np, cell%np
		blk, j0 := blockAt(blocks, bi), p*top2Cols
		lanes := min(top2Cols, n-j0)
		if !need.cell(bi, n, j0, lanes) {
			return
		}
		at := bi*n + j0
		bs, ss, is := best[at:at+lanes], second[at:at+lanes], bestIdx[at:at+lanes]
		for j := range bs {
			bs[j], ss[j], is[j] = math.MaxFloat32, math.MaxFloat32, -1
		}
		mask := uint32(uint64(1)<<lanes - 1)
		nr := &negZeros[0]
		for r0 := 0; r0 < width; r0 += top2Rows {
			i0 := blk*width + r0
			if norms != nil {
				nr = &norms[i0]
			}
			hgemmTop2Tile(&bp[p*panel], k, &A.Data[i0*A.Stride], astride, min(top2Rows, width-r0), r0,
				nr, &bs[0], &ss[0], &is[0], alpha, inv, mask)
		}
	})
}

// packHalfPanel32 is packPanel32 for a binary16 B: dst[l*32+c] =
// B[l, j0+c], the lanes past B.Cols zero-filled, computed and never stored.
func packHalfPanel32(B *HalfMatrix, j0 int, dst half.Vector) {
	cols := min(top2Cols, B.Cols-j0)
	if cols < top2Cols {
		clear(dst)
	}
	for c := 0; c < cols; c++ {
		for l, v := range B.Col(j0 + c) {
			dst[l*top2Cols+c] = v
		}
	}
}
