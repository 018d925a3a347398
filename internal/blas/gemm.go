package blas

import (
	"fmt"
	"math"
	"sync"
)

// GemmTN computes C = alpha·AᵀB + beta·C where A is k×m, B is k×n and C is
// m×n (all column-major). This is the exact shape of the similarity-matrix
// step: with A = R (d×m reference features) and B = Q (d×n query features),
// alpha = -2 and beta = 0 produce the -2·RᵀQ term of Eq. 1.
//
// On amd64 with AVX2+FMA the kernel packs A into 8-column interleaved
// i-panels and runs an 8×8 register tile that vectorizes over the *output*
// rows: each C element is one sequential FMA chain over the k dimension, so
// its value depends only on the two operand columns — not on tile position,
// tile width, worker count, or how the matrix is batched. That per-element
// invariance is what lets batched-vs-single and multi-vs-single query tests
// demand bitwise equality, and makes the result independent of GOMAXPROCS.
// The portable fallback keeps the same property with scalar chains.
func GemmTN(alpha float32, A, B *Matrix, beta float32, C *Matrix) {
	if A.Rows != B.Rows {
		panic(fmt.Sprintf("blas: GemmTN inner dimension mismatch %d != %d", A.Rows, B.Rows))
	}
	if C.Rows != A.Cols || C.Cols != B.Cols {
		panic(fmt.Sprintf("blas: GemmTN output %dx%d, want %dx%d", C.Rows, C.Cols, A.Cols, B.Cols))
	}
	if C.Rows == 0 || C.Cols == 0 {
		return
	}
	if A.Rows == 0 {
		// Empty inner dimension: C = alpha·0 + beta·C.
		for j := 0; j < C.Cols; j++ {
			col := C.Col(j)
			for i := range col {
				if beta == 0 {
					col[i] = 0
				} else {
					col[i] *= beta
				}
			}
		}
		return
	}
	if useAVX2 {
		gemmTNAVX(alpha, A, B, beta, C)
		return
	}
	gemmTNGeneric(alpha, A, B, beta, C)
}

// Blocking parameters for the AVX2 path. An i-panel is 8 A-columns packed
// interleaved; a super-tile groups panels so one j-group re-streams at most
// superTiles·8·k floats of packed A (256 KiB at k=128) from L2; a j-group
// is a run of 8-column octets sharing that super-tile.
const (
	tileRows       = 8
	superTiles     = 64 // 512 C rows per block
	octetsPerGroup = 16 // 128 C columns per block
)

// storeMasks[r] has the first r lanes set, gating kernel stores on partial
// i-tiles.
var storeMasks = func() (m [9][8]int32) {
	for r := 1; r <= 8; r++ {
		for i := 0; i < r; i++ {
			m[r][i] = -1
		}
	}
	return
}()

// f32Pool recycles packing scratch across kernel invocations. Buffers are
// fully overwritten before use, so reuse cannot perturb results.
var f32Pool = sync.Pool{New: func() any { return new([]float32) }}

func getF32(n int) (*[]float32, []float32) {
	p := f32Pool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	return p, (*p)[:n]
}

func gemmTNAVX(alpha float32, A, B *Matrix, beta float32, C *Matrix) {
	m, n, k := A.Cols, B.Cols, A.Rows
	nt := (m + tileRows - 1) / tileRows
	ph, ap := getF32(nt * tileRows * k)
	defer f32Pool.Put(ph)

	nSuper := (nt + superTiles - 1) / superTiles
	Parallel(nSuper, func(sb int) {
		t0, t1 := sb*superTiles, min((sb+1)*superTiles, nt)
		for t := t0; t < t1; t++ {
			packTile(A, t*tileRows, k, ap[t*tileRows*k:(t+1)*tileRows*k])
		}
	})

	nOct := n / 8
	jGroups := (nOct + octetsPerGroup - 1) / octetsPerGroup
	jBlocks := jGroups
	if n%8 != 0 {
		jBlocks++
	}
	bstride := uintptr(B.Stride) * 4
	cstride := uintptr(C.Stride) * 4
	Parallel(nSuper*jBlocks, func(blk int) {
		sb, jb := blk/jBlocks, blk%jBlocks
		t0, t1 := sb*superTiles, min((sb+1)*superTiles, nt)
		if jb < jGroups {
			for o := jb * octetsPerGroup; o < min((jb+1)*octetsPerGroup, nOct); o++ {
				j := o * 8
				bp := &B.Data[j*B.Stride]
				for t := t0; t < t1; t++ {
					rows := min(m-t*tileRows, tileRows)
					kern8x8(&ap[t*tileRows*k], bp, bstride,
						&C.Data[j*C.Stride+t*tileRows], cstride,
						int64(k), alpha, beta, &storeMasks[rows][0])
				}
			}
		} else {
			for j := nOct * 8; j < n; j++ {
				bp := &B.Data[j*B.Stride]
				for t := t0; t < t1; t++ {
					rows := min(m-t*tileRows, tileRows)
					kern8x1(&ap[t*tileRows*k], bp,
						&C.Data[j*C.Stride+t*tileRows],
						int64(k), alpha, beta, &storeMasks[rows][0])
				}
			}
		}
	})
}

// packTile interleaves 8 consecutive A columns starting at i0 into dst:
// dst[l*8+r] = A[l, i0+r], zero-padding past A.Cols. Padding lanes compute
// garbage the store masks discard, so real elements are unaffected.
func packTile(A *Matrix, i0, k int, dst []float32) {
	if A.Cols-i0 >= 8 {
		c0, c1, c2, c3 := A.Col(i0), A.Col(i0+1), A.Col(i0+2), A.Col(i0+3)
		c4, c5, c6, c7 := A.Col(i0+4), A.Col(i0+5), A.Col(i0+6), A.Col(i0+7)
		for l := 0; l < k; l++ {
			d := dst[l*8 : l*8+8]
			d[0], d[1], d[2], d[3] = c0[l], c1[l], c2[l], c3[l]
			d[4], d[5], d[6], d[7] = c4[l], c5[l], c6[l], c7[l]
		}
		return
	}
	cols := A.Cols - i0
	for r := 0; r < 8; r++ {
		if r < cols {
			col := A.Col(i0 + r)
			for l := 0; l < k; l++ {
				dst[l*8+r] = col[l]
			}
		} else {
			for l := 0; l < k; l++ {
				dst[l*8+r] = 0
			}
		}
	}
}

// gemmTNGeneric is the portable kernel: fixed 4-column blocks so the
// partition never depends on worker count, with every element accumulated
// by one sequential multiply-add chain (dot4 keeps one chain per output, so
// quad and tail columns round identically).
func gemmTNGeneric(alpha float32, A, B *Matrix, beta float32, C *Matrix) {
	m, n := A.Cols, B.Cols
	nq := n / 4
	blocks := nq
	if n%4 != 0 {
		blocks++
	}
	Parallel(blocks, func(b int) {
		if b < nq {
			j := b * 4
			b0, b1, b2, b3 := B.Col(j), B.Col(j+1), B.Col(j+2), B.Col(j+3)
			c0, c1, c2, c3 := C.Col(j), C.Col(j+1), C.Col(j+2), C.Col(j+3)
			for i := 0; i < m; i++ {
				d0, d1, d2, d3 := dot4(A.Col(i), b0, b1, b2, b3)
				if beta == 0 {
					c0[i] = alpha * d0
					c1[i] = alpha * d1
					c2[i] = alpha * d2
					c3[i] = alpha * d3
				} else {
					c0[i] = alpha*d0 + beta*c0[i]
					c1[i] = alpha*d1 + beta*c1[i]
					c2[i] = alpha*d2 + beta*c2[i]
					c3[i] = alpha*d3 + beta*c3[i]
				}
			}
		} else {
			for j := nq * 4; j < n; j++ {
				bcol := B.Col(j)
				ccol := C.Col(j)
				for i := 0; i < m; i++ {
					d := dot(A.Col(i), bcol)
					if beta == 0 {
						ccol[i] = alpha * d
					} else {
						ccol[i] = alpha*d + beta*ccol[i]
					}
				}
			}
		}
	})
}

// dot4 computes the dot product of a against four right-hand columns in
// one pass over a. Each output keeps its own sequential accumulator chain,
// so the four results are bitwise identical to four dot calls.
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	if n == 0 {
		return
	}
	// Reslicing to the shared length lets the compiler drop the four
	// inner-loop bounds checks.
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for i, v := range a {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return
}

// dot computes the float32 dot product of two equal-length slices with one
// sequential accumulator chain — the same per-element order as one lane of
// dot4, so a column's value does not depend on which kernel computed it.
func dot(a, b []float32) float32 {
	var s float32
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n] // bounds-check elimination, mirroring dot4
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Top2AddRows is the fused Algorithm-1 epilogue: for every column of C it
// scans rows [lo, hi) once, adding norms[i] (step 4, which the paper does
// in place on the GPU) on the fly and keeping the two smallest sums in
// registers (step 5), writing them plus the best row offset to
// best/second/bestIdx at the column's index. It computes exactly what an
// in-place row add followed by a top-2 scan would — same add, same strict-<
// comparisons — but traverses the m×n block once and leaves C untouched. A
// nil norms skips the addition (the RootSIFT path, where the norm terms
// vanish).
//
// The selection, which GemmTop2's fused tier reproduces bit for bit and
// TestTop2AddRowsSemantics pins rule by rule: rows are visited in
// ascending order starting from (best, second, index) = (MaxFloat32,
// MaxFloat32, −1); v = C[i,j] + norms[i] is rounded once; if v < best,
// second takes best and best takes v and i − lo, else if v < second,
// second takes v. So the comparison is strict: the lowest index wins a tie
// for best and a value equal to best becomes second. NaN compares false
// and is never selected, so an empty or all-NaN block returns the start
// state. ±Inf compare like any other value (+Inf never beats the
// MaxFloat32 start), and −0 and +0 compare equal, so whichever comes first
// keeps its sign bit.
func Top2AddRows(C *Matrix, norms []float32, lo, hi int, best, second []float32, bestIdx []int32) {
	n := C.Cols
	if len(best) < n || len(second) < n || len(bestIdx) < n {
		panic(fmt.Sprintf("blas: Top2AddRows outputs %d/%d/%d, want >= %d",
			len(best), len(second), len(bestIdx), n))
	}
	if norms != nil && len(norms) != C.Rows {
		panic(fmt.Sprintf("blas: Top2AddRows norms length %d, want %d", len(norms), C.Rows))
	}
	for j := 0; j < n; j++ {
		col := C.Col(j)
		b, s := float32(math.MaxFloat32), float32(math.MaxFloat32)
		bi := int32(-1)
		if norms != nil {
			for i := lo; i < hi; i++ {
				v := col[i] + norms[i]
				if v < b {
					s = b
					b = v
					bi = int32(i - lo)
				} else if v < s {
					s = v
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				v := col[i]
				if v < b {
					s = b
					b = v
					bi = int32(i - lo)
				} else if v < s {
					s = v
				}
			}
		}
		best[j], second[j], bestIdx[j] = b, s, bi
	}
}
