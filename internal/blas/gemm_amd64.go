//go:build amd64

package blas

import "os"

// kern8x8 computes one 8×8 tile of C = alpha·AᵀB + beta·C from a packed
// A i-panel and 8 contiguous B columns. See gemm_amd64.s.
//
//go:noescape
func kern8x8(apack *float32, b *float32, bstride uintptr, c *float32, cstride uintptr, k int64, alpha float32, beta float32, mask *int32)

// kern8x1 computes one 8×1 tile with the identical per-element FMA chain,
// used for j-tail columns.
//
//go:noescape
func kern8x1(apack *float32, b *float32, c *float32, k int64, alpha float32, beta float32, mask *int32)

func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (lo, hi uint32)

// haveAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernel
// path: AVX2 and FMA instruction sets, plus OS-enabled YMM state (OSXSAVE
// and XCR0 bits 1-2). TEXID_NOASM=1 forces the portable kernels, which the
// cross-implementation tests use to exercise both paths.
func haveAVX2FMA() bool {
	if os.Getenv("TEXID_NOASM") != "" {
		return false
	}
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, c1, _ := cpuidx(1, 0)
	if c1&fma == 0 || c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidx(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

var useAVX2 = haveAVX2FMA()

// haveAVX512F reports whether the CPU and OS support AVX512F (CPUID.7.0:EBX
// bit 16) with OS-enabled opmask and ZMM state (XCR0 0xE6: bits 5-7 on top
// of the SSE/AVX bits 1-2). OSXSAVE and TEXID_NOASM are covered by useAVX2,
// which gates every AVX-512 tier alongside this.
func haveAVX512F() bool {
	_, b7, _, _ := cpuidx(7, 0)
	if b7&(1<<16) == 0 {
		return false
	}
	lo, _ := xgetbv0()
	return lo&0xE6 == 0xE6
}

// useAVX512 gates GemmTop2's native tier (fused_amd64.s).
var useAVX512 = useAVX2 && haveAVX512F()

// UseAVX512F reports whether assembly kernels outside this package may use
// AVX512F arithmetic on ZMM registers. Like UseVPOPCNTQ it is false under
// TEXID_NOASM=1, and callers read it once, at package initialisation.
func UseAVX512F() bool { return useAVX512 }

// haveVPOPCNTQ reports whether the host has AVX512F (haveAVX512F) plus
// AVX512VL (CPUID.7.0:EBX bit 31) and AVX512_VPOPCNTDQ (CPUID.7.0:ECX
// bit 14).
func haveVPOPCNTQ() bool {
	_, b7, c7, _ := cpuidx(7, 0)
	const (
		avx512vl  = 1 << 31
		vpopcntdq = 1 << 14
	)
	return haveAVX512F() && b7&avx512vl != 0 && c7&vpopcntdq != 0
}

// UseVPOPCNTQ reports whether assembly kernels outside this package may use
// AVX-512 VPOPCNTQ (with AVX512F/VL arithmetic on ZMM/YMM/XMM registers).
// It is false under TEXID_NOASM=1, like every assembly tier here, so this
// package's CPUID probe stays the only one in the tree. Callers read it
// once, at package initialisation.
func UseVPOPCNTQ() bool { return useAVX2 && haveVPOPCNTQ() }
