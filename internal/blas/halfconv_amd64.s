// AVX-512 float32→binary16 conversion (HalfFromMatrixInto's and
// HalfColumnsInto's native tier). See halfConvert in hgemm.go for the
// dispatch; the value every lane must equal is halfConvertPortable's,
// half.FromFloat32(v·scale), and its ±Inf count.

#include "textflag.h"

// func cvtHalf16(dst *half.Float16, src *float32, n int, scale float32) int
//
// Converts n float32s (n a positive multiple of 16) sixteen at a time and
// returns how many results are ±Inf. Each step:
//   - VMULPS by the broadcast scale, one rounding, as Go's v*scale. The
//     scale is the first source, as the plain build's scalar loop has it
//     (MULSS into the scale's register): of two NaN operands x86 returns
//     the first source's, so a NaN times a NaN keeps the scale's sign on
//     both. Go leaves that sign to the compiler (the fuzzing build's
//     instrumented loop keeps the value's), and the tier tests accept
//     either there;
//   - NaN lanes (UNORD_Q against themselves, K1) become sign|0x7FC00000,
//     which VCVTPS2PH turns into FromFloat32's canonical sign|0x7E00 (it
//     would otherwise carry the payload's top bits across);
//   - |x| ≥ 65520 (GE_OQ, K2) is exactly the set round-to-nearest-even
//     sends to ±Inf: 65520 is the tie above 65504 and rounds to the even
//     side, Inf, and every smaller magnitude stays finite. NaN lanes
//     compare false. KMOVW + POPCNTL add the lanes to the count; counting
//     before the convert needs AVX512F only, where VPCMPEQW on the
//     converted words would need AVX512BW too;
//   - VCVTPS2PH with imm8 0 (rounding from imm8, not MXCSR: nearest-even)
//     stores the sixteen halves.
//
// SI src, DI dst, CX steps left, AX count; Z1 scale, Z2 0x7FFFFFFF (abs),
// Z3 0x80000000 (sign), Z4 0x7FC00000 (quiet NaN), Z5 65520.
TEXT ·cvtHalf16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	XORQ AX, AX

	VBROADCASTSS scale+24(FP), Z1
	MOVL         $0x7FFFFFFF, DX
	VPBROADCASTD DX, Z2
	MOVL         $0x80000000, DX
	VPBROADCASTD DX, Z3
	MOVL         $0x7FC00000, DX
	VPBROADCASTD DX, Z4
	MOVL         $0x477FF000, DX // 65520.0
	VPBROADCASTD DX, Z5

loop:
	VMULPS    (SI), Z1, Z0
	VCMPPS    $0x03, Z0, Z0, K1
	VPANDD    Z3, Z0, K1, Z0
	VPORD     Z4, Z0, K1, Z0
	VPANDD    Z2, Z0, Z6
	VCMPPS    $0x1D, Z5, Z6, K2
	KMOVW     K2, DX
	POPCNTL   DX, DX
	ADDQ      DX, AX
	VCVTPS2PH $0, Z0, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop

	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
