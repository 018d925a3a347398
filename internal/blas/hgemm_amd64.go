//go:build amd64

package blas

import "texid/internal/half"

// hkernOct16 computes 4 A-columns × 8 B-columns of raw AᵀB dot products
// with full binary16 semantics (every product and every partial sum rounded
// to binary16 via F16C converts). See hgemm_amd64.s.
//
// a points at the first of 4 contiguous k-stride A columns (a + r*k floats);
// bo is the 8 B columns packed octet-interleaved, bo[l*8+c] = B[l, j0+c];
// out receives the 32 accumulators, out[r*8+c] = dot(A col r, B col c).
// alpha is applied by the caller.
//
//go:noescape
func hkernOct16(a *float32, k int, bo *float32, out *float32)

// hkernOct32 is hkernOct16 with float32 accumulation (products still
// rounded to binary16), the AccumFP32 tensor-core mode.
//
//go:noescape
func hkernOct32(a *float32, k int, bo *float32, out *float32)

// vcvtph2ps8 widens n (a multiple of 8) binary16 values to float32 with
// VCVTPH2PS, bit-identical to the decode table for every input including
// NaN payloads.
//
//go:noescape
func vcvtph2ps8(dst *float32, src *half.Float16, n int)

// haveF16C reports whether the CPU supports the F16C half-precision
// converts (CPUID.1:ECX bit 29). YMM state and the TEXID_NOASM escape are
// already covered by useAVX2, which gates useF16C alongside this.
func haveF16C() bool {
	_, _, c1, _ := cpuidx(1, 0)
	return c1&(1<<29) != 0
}

// useF16C gates the F16C HGemm kernels and the widen lane. It implies
// useAVX2, so TEXID_NOASM=1 disables both GEMM asm paths together.
var useF16C = useAVX2 && haveF16C()

// hkernPH computes one 32(i)×8(j) tile of C = alpha·AᵀB with AccumFP16 in
// native binary16 arithmetic (AVX512-FP16). See hgemm_amd64.s.
//
// ap is the A panel packed row-interleaved, ap[l*32+r] = A[l, i0+r]; b[c]
// points at B column j0+c and c[c] at C[i0, j0+c]. Bit r of mask
// enables the store of row i0+r, so a short final panel writes only its
// rows.
//
//go:noescape
func hkernPH(ap *half.Float16, k int, b *[8]*half.Float16, c *[8]*float32, mask uint32, alpha float32)

// haveAVX512FP16 reports whether the CPU and OS support the native binary16
// tier: AVX512F with ZMM state (haveAVX512F), AVX512BW (CPUID.7.0:EBX bit
// 30) and AVX512-FP16 (CPUID.7.0:EDX bit 23). OSXSAVE and TEXID_NOASM are
// covered by useAVX2, which gates useFP16 alongside this.
func haveAVX512FP16() bool {
	_, b7, _, d7 := cpuidx(7, 0)
	const (
		avx512bw   = 1 << 30
		avx512fp16 = 1 << 23
	)
	return haveAVX512F() && b7&avx512bw != 0 && d7&avx512fp16 != 0
}

// useFP16 gates the AVX512-FP16 HGemm tier, tried before the F16C one.
var useFP16 = useAVX2 && haveAVX512FP16()

// cvtHalf16 sets dst[i] = half.FromFloat32(src[i]·scale) for i < n, n a
// positive multiple of 16, and returns how many results are ±Inf. See
// halfconv_amd64.s.
//
//go:noescape
func cvtHalf16(dst *half.Float16, src *float32, n int, scale float32) int
