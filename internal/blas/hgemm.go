package blas

import (
	"fmt"
	"math"
	"sync"

	"texid/internal/half"
)

// AccumMode selects the accumulator precision of HGemmTN.
type AccumMode int

const (
	// AccumFP16 rounds every product and every partial sum to binary16,
	// matching pre-Volta HGEMM (Tesla P100). Overflow produces ±Inf in the
	// output, which is the failure mode Table 2's scale-factor study guards
	// against.
	AccumFP16 AccumMode = iota
	// AccumFP32 rounds products to binary16 but accumulates in float32,
	// matching Volta tensor-core HMMA semantics (V100 w/ tensor cores).
	AccumFP32
)

func (m AccumMode) String() string {
	switch m {
	case AccumFP16:
		return "fp16-accumulate"
	case AccumFP32:
		return "fp32-accumulate"
	}
	return fmt.Sprintf("AccumMode(%d)", int(m))
}

// HalfMatrix is a dense column-major binary16 matrix, the storage format of
// reference feature matrices in simulated device memory.
type HalfMatrix struct {
	Rows, Cols int
	Stride     int
	Data       half.Vector
}

// HalfFromMatrix converts a float32 matrix to binary16 after multiplying by
// scale. It returns the converted matrix and the number of elements that
// overflowed to ±Inf.
func HalfFromMatrix(m *Matrix, scale float32) (*HalfMatrix, int) {
	h := &HalfMatrix{}
	overflow := HalfFromMatrixInto(m, scale, h)
	return h, overflow
}

// HalfFromMatrixInto is HalfFromMatrix converting into h, reusing its
// backing storage when large enough. It returns the overflow count.
func HalfFromMatrixInto(m *Matrix, scale float32, h *HalfMatrix) int {
	reshapeHalf(h, m.Rows, m.Cols)
	return halfColumns(h.Data, m, scale)
}

// HalfColumnsInto converts the column-wise concatenation of ms (all with
// the same row count) into h, reusing its backing storage when large
// enough, and returns the overflow count: HalfFromMatrixInto of
// ConcatColumns(ms...) without the float32 concatenation, which is how an
// FP16 reference batch is sealed.
func HalfColumnsInto(ms []*Matrix, scale float32, h *HalfMatrix) int {
	if len(ms) == 0 {
		*h = HalfMatrix{}
		return 0
	}
	rows, total := ms[0].Rows, 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("blas: HalfColumnsInto row mismatch %d != %d", m.Rows, rows))
		}
		total += m.Cols
	}
	reshapeHalf(h, rows, total)
	overflow, at := 0, 0
	for _, m := range ms {
		overflow += halfColumns(h.Data[at:at+rows*m.Cols], m, scale)
		at += rows * m.Cols
	}
	return overflow
}

// reshapeHalf makes h a tight rows×cols matrix, reallocating its storage
// only when the capacity is short.
func reshapeHalf(h *HalfMatrix, rows, cols int) {
	if cap(h.Data) < rows*cols {
		h.Data = make(half.Vector, rows*cols)
	}
	h.Rows, h.Cols, h.Stride = rows, cols, rows
	h.Data = h.Data[:rows*cols]
}

// halfColumns converts m's columns, tightly packed, into dst (len
// m.Rows·m.Cols) and returns the overflow count. A tight m converts as one
// run.
func halfColumns(dst half.Vector, m *Matrix, scale float32) int {
	if m.Stride == m.Rows {
		return halfConvert(dst, m.Data[:m.Rows*m.Cols], scale)
	}
	overflow := 0
	for j := 0; j < m.Cols; j++ {
		overflow += halfConvert(dst[j*m.Rows:(j+1)*m.Rows], m.Col(j), scale)
	}
	return overflow
}

// halfConvert sets dst[i] = half.FromFloat32(src[i]·scale) and returns how
// many of the results are ±Inf. The whole sixteen-element steps run on the
// first tier the host has, chosen once from CPUID: AVX-512 (cvtHalf16:
// VMULPS, NaN canonicalization, VCVTPS2PH round-to-nearest-even), else the
// scalar loop, which is the reference (halfConvertPortable) and also takes
// the tail. Every element is independent, so the tiers agree bit for bit
// whatever the split.
func halfConvert(dst half.Vector, src []float32, scale float32) int {
	dst = dst[:len(src)]
	overflow, done := 0, 0
	if useAVX512 && len(src) >= 16 {
		done = len(src) &^ 15
		overflow = cvtHalf16(&dst[0], &src[0], done, scale)
	}
	return overflow + halfConvertPortable(dst[done:], src[done:], scale)
}

// halfConvertPortable is halfConvert on the scalar loop whatever the host:
// the portable tier and the oracle the native one is checked against.
func halfConvertPortable(dst half.Vector, src []float32, scale float32) int {
	overflow := 0
	for i, v := range src {
		x := half.FromFloat32(v * scale)
		if x.IsInf() {
			overflow++
		}
		dst[i] = x
	}
	return overflow
}

// ConcatHalfColumnsInto concatenates binary16 matrices column-wise into
// dst, reusing its backing storage when large enough.
func ConcatHalfColumnsInto(dst *HalfMatrix, ms ...*HalfMatrix) *HalfMatrix {
	if len(ms) == 0 {
		*dst = HalfMatrix{}
		return dst
	}
	rows := ms[0].Rows
	total := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("blas: concat row mismatch %d != %d", m.Rows, rows))
		}
		total += m.Cols
	}
	if cap(dst.Data) < rows*total {
		dst.Data = make(half.Vector, rows*total)
	}
	dst.Rows, dst.Cols, dst.Stride = rows, total, rows
	dst.Data = dst.Data[:rows*total]
	at := 0
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			copy(dst.Col(at), m.Col(j))
			at++
		}
	}
	return dst
}

// Col returns column j as a slice sharing the matrix's storage.
func (m *HalfMatrix) Col(j int) half.Vector {
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// Float32 widens the matrix to float32.
func (m *HalfMatrix) Float32() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		widenCol(out.Col(j), m.Col(j))
	}
	return out
}

// Slice returns a view of columns [from, to) sharing storage with m.
func (m *HalfMatrix) Slice(from, to int) *HalfMatrix {
	if from < 0 || to > m.Cols || from > to {
		panic(fmt.Sprintf("blas: slice [%d,%d) of %d columns", from, to, m.Cols))
	}
	return &HalfMatrix{
		Rows:   m.Rows,
		Cols:   to - from,
		Stride: m.Stride,
		Data:   m.Data[from*m.Stride : from*m.Stride+(to-from-1)*m.Stride+m.Rows],
	}
}

// HGemmTN computes C = alpha·AᵀB into a float32 output matrix, where A and B
// hold binary16 operands. Products are always formed from the binary16
// operand values; the accumulator behaves per mode. With AccumFP16 the
// result of every fused step is itself rounded to binary16, so C's entries
// are exactly representable binary16 values (possibly ±Inf on overflow).
//
// alpha is applied after accumulation in float32, matching cuBLAS's
// epilogue, so alpha = -2 cannot itself overflow the FP16 accumulator.
//
// HGemmTN is HGemmTNBlocks over all of A with pooled staging.
func HGemmTN(alpha float32, A, B *HalfMatrix, mode AccumMode, C *Matrix) {
	HGemmTNBlocks(alpha, A, 0, nil, B, mode, C, nil)
}

// Staging is the float32 scratch of the tiers that compute on widened
// operands (F16C and portable): HGemmTNBlocks widens the A columns it
// multiplies and all of B into it, growing it only when it is too small.
// The AVX512-FP16 tier computes on the binary16 storage directly and never
// touches it. The zero value is ready to use; a Staging is not safe for
// concurrent use.
type Staging struct{ a, b []float32 }

var stagingPool = sync.Pool{New: func() any { return new(Staging) }}

// HGemmTNBlocks is HGemmTN over a gathered A: block b of A is its columns
// [b*width, (b+1)*width), and the blocks named by blocks stand side by side
// in list order, so C has len(blocks)*width rows. A nil blocks means all of
// A (width is then ignored). A's columns are gathered straight from its
// storage — no view, no copy of the operand; st (nil = pooled) holds the
// widened operands on the tiers that need them.
//
// Which tier runs — AVX512-FP16 (AccumFP16 only), F16C, portable — is
// invisible in the output: every C element is one sequential rounding chain
// over k of one A column against one B column, identical on all three, so
// C[i,j] depends on nothing but those two columns. A GEMM over any subset
// of A's columns therefore produces output bits identical to the matching
// rows of a GEMM over all of A. That slice-invariance is what lets the
// Hamming prefilter rerank a candidate subset and still be byte-identical
// to the whole-batch match.
func HGemmTNBlocks(alpha float32, A *HalfMatrix, width int, blocks []int32, B *HalfMatrix, mode AccumMode, C *Matrix, st *Staging) {
	if blocks == nil {
		width, blocks = A.Cols, wholeOperand
	}
	m := len(blocks) * width
	n, k := hgemmShape(A, m, B, C)
	if m == 0 || n == 0 {
		return
	}
	if useFP16 && mode == AccumFP16 && k > 0 {
		hgemmNative(alpha, A, width, blocks, B, C)
		return
	}
	if st == nil {
		st = stagingPool.Get().(*Staging)
		defer stagingPool.Put(st)
	}
	st.a = growF32(st.a, m*k)
	widenBlocks(A, width, blocks, st.a)
	st.b = StageHalf(B, st.b)
	hgemmCore(alpha, st.a, st.b, m, n, k, mode, C)
}

// HGemmTNPortable is HGemmTN on the portable kernel whatever the host — the
// kernel TEXID_NOASM=1 selects — on one goroutine with freshly allocated
// staging: the oracle a measured asm run is checked against.
func HGemmTNPortable(alpha float32, A, B *HalfMatrix, mode AccumMode, C *Matrix) {
	m := A.Cols
	n, k := hgemmShape(A, m, B, C)
	hgemmBlockGo(alpha, StageHalf(A, nil), StageHalf(B, nil), 0, m, k, 0, n, mode, C)
}

// hgemmShape validates an m-column gather of A against B and C and returns
// (n, k).
func hgemmShape(A *HalfMatrix, m int, B *HalfMatrix, C *Matrix) (n, k int) {
	if A.Rows != B.Rows {
		panic(fmt.Sprintf("blas: HGemmTN inner dimension mismatch %d != %d", A.Rows, B.Rows))
	}
	if C.Rows != m || C.Cols != B.Cols {
		panic(fmt.Sprintf("blas: HGemmTN output %dx%d, want %dx%d", C.Rows, C.Cols, m, B.Cols))
	}
	return B.Cols, A.Rows
}

// StageHalf widens h into dst as the k-stride float32 staging the F16C and
// portable kernels consume (dst[j*k+i] = widen(h[i,j])), growing dst only
// when its capacity is insufficient, and returns the resized slice.
func StageHalf(h *HalfMatrix, dst []float32) []float32 {
	dst = growF32(dst, h.Rows*h.Cols)
	widenHalf(h, dst)
	return dst
}

// growF32 returns dst resized to n elements, reallocating only when its
// capacity is insufficient. Contents are undefined.
func growF32(dst []float32, n int) []float32 {
	if cap(dst) < n {
		return make([]float32, n)
	}
	return dst[:n]
}

// The native tile: 32 A columns (one ZMM of binary16 lanes) × 8 B columns
// (eight accumulators).
const (
	nativeRows = 32
	nativeCols = 8
)

// panelPool recycles hgemmNative's binary16 panels; like f32Pool's
// buffers they are fully overwritten before use.
var panelPool = sync.Pool{New: func() any { return new(half.Vector) }}

func getHalf(n int) (*half.Vector, half.Vector) {
	p := panelPool.Get().(*half.Vector)
	if cap(*p) < n {
		*p = make(half.Vector, n)
	}
	return p, (*p)[:n]
}

// hgemmNative is the AVX512-FP16 tier of AccumFP16: binary16 is the compute
// format, not only the storage format (see hkernPH for why the chain is the
// F16C one bit for bit). Work is partitioned into fixed 32-row panels of C;
// each packs its A columns row-interleaved into pooled scratch (8 KiB at
// k = 128) and sweeps all of B eight columns at a time, broadcasting B from
// its storage in place. A short final panel masks its stores; a short final
// B octet repeats its last column, which recomputes and rewrites that
// column's own values. Nothing float32-sized is staged.
func hgemmNative(alpha float32, A *HalfMatrix, width int, blocks []int32, B *HalfMatrix, C *Matrix) {
	m, n, k := len(blocks)*width, B.Cols, A.Rows
	Parallel((m+nativeRows-1)/nativeRows, func(t int) {
		pp, panel := getHalf(nativeRows * k)
		defer panelPool.Put(pp)
		i0 := t * nativeRows
		rows := min(nativeRows, m-i0)
		packPanel(panel, A, width, blocks, i0, rows)
		mask := uint32(uint64(1)<<rows - 1)
		var bp [nativeCols]*half.Float16
		var cp [nativeCols]*float32
		for j0 := 0; j0 < n; j0 += nativeCols {
			for c := range bp {
				j := min(j0+c, n-1)
				bp[c] = &B.Col(j)[0]
				cp[c] = &C.Col(j)[i0]
			}
			hkernPH(&panel[0], k, &bp, &cp, mask, alpha)
		}
	})
}

// packPanel interleaves the gathered A columns [i0, i0+rows) into dst,
// dst[l*32+r] = A[l, i0+r], reading each column in place. The lanes of a
// short panel are zeroed; their results are never stored.
func packPanel(dst half.Vector, A *HalfMatrix, width int, blocks []int32, i0, rows int) {
	if rows < nativeRows {
		clear(dst)
	}
	for r := 0; r < rows; r++ {
		i := i0 + r
		for l, v := range A.Col(int(blocks[i/width])*width + i%width) {
			dst[l*nativeRows+r] = v
		}
	}
}

// hgemmCore runs the blocked kernel over pre-widened k-stride operands.
// Work is partitioned into fixed 8-column blocks of B; every output element
// is one sequential rounding chain over k inside its block, so the result
// is bitwise independent of GOMAXPROCS and of which kernel (asm or
// portable) computes it.
func hgemmCore(alpha float32, aw, bw []float32, m, n, k int, mode AccumMode, C *Matrix) {
	const jBlock = 8
	Parallel((n+jBlock-1)/jBlock, func(blk int) {
		j0 := blk * jBlock
		j1 := min(j0+jBlock, n)
		if useF16C && j1-j0 == jBlock && m >= 4 && k > 0 {
			hgemmOctAsm(alpha, aw, bw, m, k, j0, mode, C)
			return
		}
		hgemmBlockGo(alpha, aw, bw, 0, m, k, j0, j1, mode, C)
	})
}

// hgemmOctAsm runs one full 8-column B octet through the F16C assembly
// kernels. The octet is packed interleaved (bo[l*8+c] = B[l, j0+c]) into
// pooled scratch so each kernel invocation streams one cache line per k
// step; A columns are read in place via broadcasts. The m%4 row tail falls
// back to the portable kernel, which is bit-identical per element.
func hgemmOctAsm(alpha float32, aw, bw []float32, m, k, j0 int, mode AccumMode, C *Matrix) {
	pbo, bo := getF32(k * 8)
	defer f32Pool.Put(pbo)
	for c := 0; c < 8; c++ {
		col := bw[(j0+c)*k : (j0+c)*k+k]
		for l, v := range col {
			bo[l*8+c] = v
		}
	}
	var out [32]float32
	i := 0
	for ; i+4 <= m; i += 4 {
		if mode == AccumFP16 {
			hkernOct16(&aw[i*k], k, &bo[0], &out[0])
		} else {
			hkernOct32(&aw[i*k], k, &bo[0], &out[0])
		}
		for c := 0; c < 8; c++ {
			ccol := C.Col(j0 + c)
			ccol[i+0] = alpha * out[0*8+c]
			ccol[i+1] = alpha * out[1*8+c]
			ccol[i+2] = alpha * out[2*8+c]
			ccol[i+3] = alpha * out[3*8+c]
		}
	}
	if i < m {
		hgemmBlockGo(alpha, aw, bw, i, m, k, j0, j0+8, mode, C)
	}
}

// hgemmBlockGo is the portable kernel for B columns [j0, j1) and A columns
// [i0, m). Four independent accumulator chains run per step so the
// latency-bound round chain overlaps across outputs; the chain order over k
// within each output is exactly the scalar order, so results are
// bit-identical to dotFP16/dotProductsFP16 and to the asm kernel.
func hgemmBlockGo(alpha float32, aw, bw []float32, i0, m, k, j0, j1 int, mode AccumMode, C *Matrix) {
	for j := j0; j < j1; j++ {
		bcol := bw[j*k : j*k+k]
		ccol := C.Col(j)
		i := i0
		for ; i+4 <= m; i += 4 {
			a0 := aw[(i+0)*k : (i+0)*k+k]
			a1 := aw[(i+1)*k : (i+1)*k+k]
			a2 := aw[(i+2)*k : (i+2)*k+k]
			a3 := aw[(i+3)*k : (i+3)*k+k]
			a0 = a0[:len(bcol)]
			a1 = a1[:len(bcol)]
			a2 = a2[:len(bcol)]
			a3 = a3[:len(bcol)]
			// The loops below spell out d = roundHalf(d + roundHalf(a*b))
			// through roundFast so the bit trick inlines (roundHalf itself
			// is over the inline budget because of its escape call); the
			// escape calls stay here in the kernel where calls are free.
			var d0, d1, d2, d3 float32
			if mode == AccumFP16 {
				for l, bv := range bcol {
					p0, ok0 := roundFast(a0[l] * bv)
					p1, ok1 := roundFast(a1[l] * bv)
					p2, ok2 := roundFast(a2[l] * bv)
					p3, ok3 := roundFast(a3[l] * bv)
					if !ok0 {
						p0 = roundHalfSlow(p0)
					}
					if !ok1 {
						p1 = roundHalfSlow(p1)
					}
					if !ok2 {
						p2 = roundHalfSlow(p2)
					}
					if !ok3 {
						p3 = roundHalfSlow(p3)
					}
					s0, ok0 := roundFast(d0 + p0)
					s1, ok1 := roundFast(d1 + p1)
					s2, ok2 := roundFast(d2 + p2)
					s3, ok3 := roundFast(d3 + p3)
					if !ok0 {
						s0 = roundHalfSlow(s0)
					}
					if !ok1 {
						s1 = roundHalfSlow(s1)
					}
					if !ok2 {
						s2 = roundHalfSlow(s2)
					}
					if !ok3 {
						s3 = roundHalfSlow(s3)
					}
					d0, d1, d2, d3 = s0, s1, s2, s3
				}
			} else {
				for l, bv := range bcol {
					p0, ok0 := roundFast(a0[l] * bv)
					p1, ok1 := roundFast(a1[l] * bv)
					p2, ok2 := roundFast(a2[l] * bv)
					p3, ok3 := roundFast(a3[l] * bv)
					if !ok0 {
						p0 = roundHalfSlow(p0)
					}
					if !ok1 {
						p1 = roundHalfSlow(p1)
					}
					if !ok2 {
						p2 = roundHalfSlow(p2)
					}
					if !ok3 {
						p3 = roundHalfSlow(p3)
					}
					d0 += p0
					d1 += p1
					d2 += p2
					d3 += p3
				}
			}
			ccol[i+0] = alpha * d0
			ccol[i+1] = alpha * d1
			ccol[i+2] = alpha * d2
			ccol[i+3] = alpha * d3
		}
		for ; i < m; i++ {
			var d float32
			if mode == AccumFP16 {
				d = dotFP16(aw[i*k:i*k+k], bcol)
			} else {
				d = dotProductsFP16(aw[i*k:i*k+k], bcol)
			}
			ccol[i] = alpha * d
		}
	}
}

// widenHalf stages h into dst as tight k-stride float32 columns:
// dst[j*k+i] = h[i,j] widened. All of h is its one block of h.Cols columns.
func widenHalf(h *HalfMatrix, dst []float32) { widenBlocks(h, h.Cols, wholeOperand, dst) }

var wholeOperand = []int32{0}

// widenBlocks stages the named width-column blocks of h side by side:
// staged column j is h's column blocks[j/width]*width + j%width, widened
// into dst[j*k : (j+1)*k].
func widenBlocks(h *HalfMatrix, width int, blocks []int32, dst []float32) {
	k, cols := h.Rows, len(blocks)*width
	const wBlock = 32
	Parallel((cols+wBlock-1)/wBlock, func(b int) {
		for j := b * wBlock; j < min((b+1)*wBlock, cols); j++ {
			widenCol(dst[j*k:j*k+k], h.Col(int(blocks[j/width])*width+j%width))
		}
	})
}

// widenCol widens one binary16 column into out. The F16C lane (VCVTPH2PS)
// and the decode-table fallback produce identical bit patterns for every
// input, NaN payloads included, so the choice is invisible to callers.
func widenCol(out []float32, src half.Vector) {
	if useF16C && len(src) >= 8 {
		n8 := len(src) &^ 7
		vcvtph2ps8(&out[0], &src[0], n8)
		src, out = src[n8:], out[n8:]
	}
	for i, x := range src {
		out[i] = x.Float32()
	}
}

// dotFP16 computes a dot product with full binary16 semantics: each product
// and each running sum is rounded to binary16. Operands must already be
// exactly representable in binary16 (they come from widened HalfMatrix
// storage).
func dotFP16(a, b []float32) float32 {
	var acc float32
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)] // bounds-check elimination, mirroring dot4
	for i, av := range a {
		acc = roundHalf(acc + roundHalf(av*b[i]))
	}
	return acc
}

// dotProductsFP16 rounds each product to binary16 but accumulates in
// float32 (tensor-core style).
func dotProductsFP16(a, b []float32) float32 {
	var acc float32
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)] // bounds-check elimination, mirroring dot4
	for i, av := range a {
		acc += roundHalf(av * b[i])
	}
	return acc
}

// roundHalf rounds a float32 through binary16 and back, bit-identical to
// half.Round (TestRoundHalfMatchesHalfRound pins them together). It is the
// convenience form for the scalar tails; the unrolled kernel uses
// roundFast/roundHalfSlow directly so the bit trick inlines there — a
// function that both computes the trick and calls the escape can never fit
// the inline budget, which is why the pair exists.
func roundHalf(f float32) float32 {
	r, ok := roundFast(f)
	if !ok {
		return roundHalfSlow(f)
	}
	return r
}

// roundFast applies half.Round's normal-range RNE bit trick, including the
// overflow-to-±Inf clamp. ok = false means f is outside the trick's domain
// (binary16-subnormal magnitude, zero, Inf, or NaN) and the caller must
// finish the job with roundHalfSlow. Kept escape-free and under the inline
// budget on purpose — the GEMM inner loops rely on it inlining.
func roundFast(f float32) (float32, bool) {
	b := math.Float32bits(f)
	if (b>>23)&0xFF-113 >= 142 {
		return f, false
	}
	r := (b + 0xFFF + ((b >> 13) & 1)) &^ 0x1FFF
	if r&0x7FFFFFFF >= 0x47800000 {
		r = b&0x80000000 | 0x7F800000
	}
	return math.Float32frombits(r), true
}

// roundHalfSlow handles the values roundFast rejects, exactly.
//
//go:noinline
func roundHalfSlow(f float32) float32 { return half.Round(f) }
