package blas

import (
	"fmt"
	"math"

	"texid/internal/half"
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
//
// The native tier reads B as pk, which the caller packs by pk.Pack(B), so a
// caller that matches one B against many reference batches packs it once;
// it computes only the cells need names (see Need). The other tiers ignore
// need and pk, and take a nil pk (Top2Fused says which tier runs).
func GemmTop2(alpha float32, A *Matrix, width int, blocks []int32, B *Matrix, pk *Panel, need Need, norms []float32, best, second []float32, bestIdx []int32, c *Matrix) {
	nb := checkTop2("GemmTop2", A.Rows, A.Cols, width, blocks, B.Rows, B.Cols, need, norms, best, second, bestIdx)
	if nb == 0 || B.Cols == 0 {
		return
	}
	if useAVX512 && A.Rows > 0 {
		pk.check(B.Rows, B.Cols, false)
		gemmTop2Native(alpha, A, width, blocks, pk.f32, B.Rows, B.Cols, need, norms, best, second, bestIdx)
		return
	}
	if c == nil {
		c = new(Matrix)
	}
	gemmTop2Fallback(alpha, A, width, blocks, B, norms, best, second, bestIdx, c)
}

// Top2Fused reports whether a GEMM + top-2 runs fused on this host, with
// the selection folded into the register tile so that the distance matrix
// is never written: GemmTop2 (fp16 false, mode ignored) on AVX-512,
// HGemmTop2 (fp16 true) in AccumFP16 on AVX512-FP16. Under TEXID_NOASM=1
// neither does. A k = 0 product takes the fallback whatever this says.
func Top2Fused(fp16 bool, mode AccumMode) bool {
	if fp16 {
		return useFP16 && mode == AccumFP16
	}
	return useAVX512
}

// Need names the cells of a fused top-2 that its caller reads. B's columns
// are queries of Cols columns each, and block bi's results for query q are
// read iff Cells[bi·(B.Cols/Cols) + q]; results outside them are left
// unspecified. The zero Need (nil Cells) reads every cell. A native tier
// skips a (block, 32-column panel) cell that no query overlapping the
// panel reads; the other tiers compute every cell.
type Need struct {
	Cols  int
	Cells []bool
}

// cell reports whether block bi's results over B's columns [j0, j0+lanes)
// of n are read by any query they overlap.
func (nd Need) cell(bi, n, j0, lanes int) bool {
	if nd.Cells == nil {
		return true
	}
	for q := j0 / nd.Cols; q <= (j0+lanes-1)/nd.Cols; q++ {
		if nd.Cells[bi*(n/nd.Cols)+q] {
			return true
		}
	}
	return false
}

// checkTop2 validates the shapes GemmTop2 and HGemmTop2 (named fn) share —
// A is k×cols, B bk×n — and returns the number of blocks selected.
func checkTop2(fn string, k, cols, width int, blocks []int32, bk, n int, need Need, norms, best, second []float32, bestIdx []int32) int {
	if width < 1 {
		panic(fmt.Sprintf("blas: %s block width %d", fn, width))
	}
	if k != bk {
		panic(fmt.Sprintf("blas: %s inner dimension mismatch %d != %d", fn, k, bk))
	}
	if blocks == nil && cols%width != 0 {
		panic(fmt.Sprintf("blas: %s %d columns are not blocks of %d", fn, cols, width))
	}
	if norms != nil && len(norms) != cols {
		panic(fmt.Sprintf("blas: %s norms length %d, want %d", fn, len(norms), cols))
	}
	nb := numBlocks(cols, width, blocks)
	if want := nb * n; len(best) < want || len(second) < want || len(bestIdx) < want {
		panic(fmt.Sprintf("blas: %s outputs %d/%d/%d, want >= %d",
			fn, len(best), len(second), len(bestIdx), want))
	}
	if need.Cells != nil && n > 0 && (need.Cols < 1 || n%need.Cols != 0 || len(need.Cells) != nb*(n/need.Cols)) {
		panic(fmt.Sprintf("blas: %s need mask of %d cells over queries of %d columns, for %d blocks × %d columns",
			fn, len(need.Cells), need.Cols, nb, n))
	}
	return nb
}

// numBlocks is the number of width-column blocks of a cols-column A that
// blocks selects.
func numBlocks(cols, width int, blocks []int32) int {
	if blocks == nil {
		return cols / width
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
	rows, n := numBlocks(A.Cols, width, blocks)*width, B.Cols
	reshape(c, rows, n)
	if blocks == nil {
		GemmTN(alpha, A, B, 0, c)
	} else {
		for bi, blk := range blocks {
			av := A.SliceView(int(blk)*width, (int(blk)+1)*width)
			cv := Matrix{Rows: width, Cols: n, Stride: rows, Data: c.Data[bi*width:]}
			GemmTN(alpha, &av, B, 0, &cv)
		}
	}
	top2Blocks(c, width, blocks, norms, best, second, bestIdx)
}

// reshape makes c a rows×n matrix, growing its storage only when too small.
// Contents are undefined.
func reshape(c *Matrix, rows, n int) {
	c.Data = growF32(c.Data, rows*n)
	c.Rows, c.Cols, c.Stride = rows, n, rows
}

// top2Blocks is the selection half of both fallbacks: Top2AddRows over
// each width-row block of c, which holds the selected blocks side by side,
// with the norms of the block of A it came from, block bi's results for
// all of c's columns landing at bi·c.Cols. Blocks are independent, so the
// sweep parallelises over them and stays bit-identical at any GOMAXPROCS.
func top2Blocks(c *Matrix, width int, blocks []int32, norms []float32, best, second []float32, bestIdx []int32) {
	n := c.Cols
	Parallel(c.Rows/width, func(bi int) {
		cv := Matrix{Rows: width, Cols: n, Stride: c.Stride, Data: c.Data[bi*width:]}
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

// gemmTop2Native is the AVX-512 tier over B (k×n) packed in bp. The work
// is one cell per (block, panel) that need names, cells of a block adjacent
// so its A columns stay in cache. A cell starts its (best, second, idx)
// lanes at (MaxFloat32, MaxFloat32, −1) in the outputs and folds the
// block's row tiles into them in ascending row order (top2Tile), so each
// lane sees Top2AddRows' comparisons in Top2AddRows' order. The partition
// depends only on the shape.
func gemmTop2Native(alpha float32, A *Matrix, width int, blocks []int32, bp []float32, k, n int, need Need, norms []float32, best, second []float32, bestIdx []int32) {
	nb := numBlocks(A.Cols, width, blocks)
	np := (n + top2Cols - 1) / top2Cols
	panel := top2Cols * k
	astride := uintptr(A.Stride) * 4
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
			top2Tile(&bp[p*panel], k, &A.Data[i0*A.Stride], astride, min(top2Rows, width-r0), r0,
				nr, &bs[0], &ss[0], &is[0], alpha, mask)
		}
	})
}

// Panel is a B operand of GemmTop2 (Pack) or HGemmTop2 (PackHalf) laid out
// for their native tiers: B's columns in k-interleaved 32-column panels,
// panel p holding dst[l*32+c] = B[l, 32p+c] with the lanes past B.Cols
// zero (computed, never stored). One pack serves every call on the same
// B; a Panel's storage is reused across packs, so a warm one allocates
// nothing. A pack must not run beside another use of the same Panel;
// concurrent kernel calls may read one packed Panel.
type Panel struct {
	f32      []float32
	f16      half.Vector
	k, n     int
	half     bool
	from32   *Matrix     // the operand being packed, during Pack only
	from16   *HalfMatrix // the operand being packed, during PackHalf only
	packPart func(int)   // packOne, bound once
}

// Pack lays out an FP32 B for GemmTop2.
func (pk *Panel) Pack(B *Matrix) {
	pk.k, pk.n, pk.half = B.Rows, B.Cols, false
	pk.f32 = growF32(pk.f32, pk.panels()*top2Cols*B.Rows)
	pk.from32 = B
	pk.run()
	pk.from32 = nil
}

// PackHalf lays out a binary16 B for HGemmTop2.
func (pk *Panel) PackHalf(B *HalfMatrix) {
	pk.k, pk.n, pk.half = B.Rows, B.Cols, true
	if need := pk.panels() * top2Cols * B.Rows; cap(pk.f16) < need {
		pk.f16 = make(half.Vector, need)
	} else {
		pk.f16 = pk.f16[:need]
	}
	pk.from16 = B
	pk.run()
	pk.from16 = nil
}

// panels is the number of 32-column panels of the packed operand.
func (pk *Panel) panels() int { return (pk.n + top2Cols - 1) / top2Cols }

// run packs every panel, in parallel.
func (pk *Panel) run() {
	if pk.packPart == nil {
		pk.packPart = pk.packOne
	}
	Parallel(pk.panels(), pk.packPart)
}

// packOne packs panel p.
func (pk *Panel) packOne(p int) {
	size := top2Cols * pk.k
	if pk.half {
		packHalfPanel32(pk.from16, p*top2Cols, pk.f16[p*size:(p+1)*size])
		return
	}
	packPanel32(pk.from32, p*top2Cols, pk.f32[p*size:(p+1)*size])
}

// check panics unless pk holds a k×n operand of the given precision.
func (pk *Panel) check(k, n int, fp16 bool) {
	if pk == nil {
		panic("blas: the fused top-2's native tier needs B packed into a Panel")
	}
	if pk.k != k || pk.n != n || pk.half != fp16 {
		panic(fmt.Sprintf("blas: packed panel is %d×%d (binary16 %v), want %d×%d (binary16 %v)",
			pk.k, pk.n, pk.half, k, n, fp16))
	}
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
