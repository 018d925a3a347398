package blas

import (
	"fmt"
	"math"
)

// GemmTop2 is GemmTN fused with Top2AddRows: for every reference block of A
// and every column j of B it returns the best value, the second-best value
// and the best row offset of block b of C = alpha·AᵀB (plus norms, when
// given) at best, second and bestIdx[b*B.Cols+j]. Block b is A's columns
// [blocks[b]*width, (blocks[b]+1)*width); a nil blocks means every block of
// A in order, so A.Cols must then be a multiple of width. A non-nil norms
// holds one value per column of A and is added to its row of C before the
// selection (Algorithm 1, step 4); nil adds nothing (the RootSIFT path).
//
// The result is bit for bit what GemmTN into a matrix followed by
// Top2AddRows over each block returns, on every tier. With AVX-512 the
// native tier folds each tile of C into the running top-2 while it is still
// in registers, so the matrix is never written; elsewhere (and for k = 0)
// the entry is literally GemmTN into c, reshaped and grown only when too
// small (nil = a fresh one), followed by Top2AddRows.
func GemmTop2(alpha float32, A *Matrix, width int, blocks []int32, B *Matrix, norms []float32, best, second []float32, bestIdx []int32, c *Matrix) {
	if width < 1 {
		panic(fmt.Sprintf("blas: GemmTop2 block width %d", width))
	}
	if A.Rows != B.Rows {
		panic(fmt.Sprintf("blas: GemmTop2 inner dimension mismatch %d != %d", A.Rows, B.Rows))
	}
	if blocks == nil && A.Cols%width != 0 {
		panic(fmt.Sprintf("blas: GemmTop2 %d columns are not blocks of %d", A.Cols, width))
	}
	if norms != nil && len(norms) != A.Cols {
		panic(fmt.Sprintf("blas: GemmTop2 norms length %d, want %d", len(norms), A.Cols))
	}
	nb := numBlocks(A, width, blocks)
	if n := nb * B.Cols; len(best) < n || len(second) < n || len(bestIdx) < n {
		panic(fmt.Sprintf("blas: GemmTop2 outputs %d/%d/%d, want >= %d",
			len(best), len(second), len(bestIdx), n))
	}
	if nb == 0 || B.Cols == 0 {
		return
	}
	if useAVX512 && A.Rows > 0 {
		gemmTop2Native(alpha, A, width, blocks, B, norms, best, second, bestIdx)
		return
	}
	if c == nil {
		c = new(Matrix)
	}
	gemmTop2Fallback(alpha, A, width, blocks, B, norms, best, second, bestIdx, c)
}

// numBlocks is the number of width-column blocks GemmTop2 selects.
func numBlocks(A *Matrix, width int, blocks []int32) int {
	if blocks == nil {
		return A.Cols / width
	}
	return len(blocks)
}

// blockAt is the block of A that selected block bi names.
func blockAt(blocks []int32, bi int) int {
	if blocks == nil {
		return bi
	}
	return int(blocks[bi])
}

// gemmTop2Fallback is GemmTop2 on the AVX2 and portable tiers, and the
// oracle the native tier is pinned to: GemmTN of the selected blocks into
// c, then Top2AddRows over each block's rows.
func gemmTop2Fallback(alpha float32, A *Matrix, width int, blocks []int32, B *Matrix, norms []float32, best, second []float32, bestIdx []int32, c *Matrix) {
	nb, n := numBlocks(A, width, blocks), B.Cols
	rows := nb * width
	c.Data = growF32(c.Data, rows*n)
	c.Rows, c.Cols, c.Stride = rows, n, rows
	if blocks == nil {
		GemmTN(alpha, A, B, 0, c)
	} else {
		for bi, blk := range blocks {
			av := A.SliceView(int(blk)*width, (int(blk)+1)*width)
			cv := Matrix{Rows: width, Cols: n, Stride: rows, Data: c.Data[bi*width:]}
			GemmTN(alpha, &av, B, 0, &cv)
		}
	}
	Parallel(nb, func(bi int) {
		cv := Matrix{Rows: width, Cols: n, Stride: rows, Data: c.Data[bi*width:]}
		var nr []float32
		if norms != nil {
			blk := blockAt(blocks, bi)
			nr = norms[blk*width : (blk+1)*width]
		}
		at := bi * n
		Top2AddRows(&cv, nr, 0, width, best[at:at+n], second[at:at+n], bestIdx[at:at+n])
	})
}

// The native tile: 8 reference rows (A columns) × 32 query columns (two ZMM
// registers of B lanes), sixteen accumulators.
const (
	top2Rows = 8
	top2Cols = 32
)

// negZeros is what a tile adds when GemmTop2 has no norms: x + (−0) is x
// for every float32 under round-to-nearest — +0, −0 and NaN payloads
// included — so one kernel serves both callers.
var negZeros = func() (z [top2Rows]float32) {
	for i := range z {
		z[i] = float32(math.Copysign(0, -1))
	}
	return
}()

// gemmTop2Native is the AVX-512 tier. B is packed once into pooled
// k-interleaved 32-column panels; the work is one cell per (block, panel),
// cells of a block adjacent so its A columns stay in cache. A cell starts
// its (best, second, idx) lanes at (MaxFloat32, MaxFloat32, −1) in the
// outputs and folds the block's row tiles into them in ascending row order
// (top2Tile), so each lane sees Top2AddRows' comparisons in Top2AddRows'
// order. The partition depends only on the shape.
func gemmTop2Native(alpha float32, A *Matrix, width int, blocks []int32, B *Matrix, norms []float32, best, second []float32, bestIdx []int32) {
	nb, n, k := numBlocks(A, width, blocks), B.Cols, B.Rows
	np := (n + top2Cols - 1) / top2Cols
	panel := top2Cols * k
	ph, bp := getF32(np * panel)
	defer f32Pool.Put(ph)
	Parallel(np, func(p int) { packPanel32(B, p*top2Cols, bp[p*panel:(p+1)*panel]) })

	astride := uintptr(A.Stride) * 4
	Parallel(nb*np, func(cell int) {
		bi, p := cell/np, cell%np
		blk, j0 := blockAt(blocks, bi), p*top2Cols
		lanes := min(top2Cols, n-j0)
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
			top2Tile(&bp[p*panel], k, &A.Data[i0*A.Stride], astride, min(top2Rows, width-r0), r0,
				nr, &bs[0], &ss[0], &is[0], alpha, mask)
		}
	})
}

// packPanel32 interleaves B's columns [j0, j0+32) into dst,
// dst[l*32+c] = B[l, j0+c], zero-filling the lanes past B.Cols; those lanes
// are computed and never stored.
func packPanel32(B *Matrix, j0 int, dst []float32) {
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
