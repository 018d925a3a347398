// AVX2/F16C micro-kernels for HGemmTN. See hgemm_amd64.go for the dispatch
// logic and hgemm.go for the bitwise-determinism contract: every C element
// is one sequential rounding chain over l = 0..k-1, identical to the
// portable kernel — VCVTPS2PH with imm8=0 is round-to-nearest-even and
// matches half.FromFloat32 bit-for-bit on every value these chains can
// produce (no f32 denormal ever arises from products of binary16 values,
// and both paths canonicalize NaNs to the same quiet patterns), while
// VCVTPH2PS is the exact widening the decode table implements.

#include "textflag.h"
#include "phstep_amd64.h"

// func hkernOct16(a *float32, k int, bo *float32, out *float32)
//
// 4(i)×8(j) raw dot products with binary16 product AND accumulate rounding
// (pre-Volta HGEMM). a: 4 contiguous k-stride columns, column r at a+r*k.
// bo: octet-interleaved B block, bo[l*8+c]. out: out[r*8+c] = chain(r, c).
// Four independent chains (Y0..Y3) are in flight per l step so the long
// mul→cvt→cvt→add→cvt→cvt dependency chains overlap.
TEXT ·hkernOct16(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ bo+16(FP), BX
	MOVQ out+24(FP), DI

	// A-column pointers: SI=a0, R8=a1, R9=a2, R10=a3 (stride k floats).
	LEAQ (SI)(CX*4), R8
	LEAQ (SI)(CX*8), R9
	LEAQ (R8)(CX*8), R10

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JE   done16

loop16:
	VMOVUPS (BX), Y4 // B[l, j0..j0+7]

	VBROADCASTSS (SI), Y5
	VMULPS  Y4, Y5, Y5
	VCVTPS2PH $0, Y5, X5 // round product to binary16
	VCVTPH2PS X5, Y5
	VADDPS  Y5, Y0, Y0
	VCVTPS2PH $0, Y0, X0 // round partial sum to binary16
	VCVTPH2PS X0, Y0

	VBROADCASTSS (R8), Y6
	VMULPS  Y4, Y6, Y6
	VCVTPS2PH $0, Y6, X6
	VCVTPH2PS X6, Y6
	VADDPS  Y6, Y1, Y1
	VCVTPS2PH $0, Y1, X1
	VCVTPH2PS X1, Y1

	VBROADCASTSS (R9), Y7
	VMULPS  Y4, Y7, Y7
	VCVTPS2PH $0, Y7, X7
	VCVTPH2PS X7, Y7
	VADDPS  Y7, Y2, Y2
	VCVTPS2PH $0, Y2, X2
	VCVTPH2PS X2, Y2

	VBROADCASTSS (R10), Y8
	VMULPS  Y4, Y8, Y8
	VCVTPS2PH $0, Y8, X8
	VCVTPH2PS X8, Y8
	VADDPS  Y8, Y3, Y3
	VCVTPS2PH $0, Y3, X3
	VCVTPH2PS X3, Y3

	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $32, BX
	DECQ CX
	JNE  loop16

done16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func hkernOct32(a *float32, k int, bo *float32, out *float32)
//
// Same tile with float32 accumulation (products still rounded to binary16):
// the Volta tensor-core AccumFP32 mode.
TEXT ·hkernOct32(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ bo+16(FP), BX
	MOVQ out+24(FP), DI

	LEAQ (SI)(CX*4), R8
	LEAQ (SI)(CX*8), R9
	LEAQ (R8)(CX*8), R10

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	TESTQ CX, CX
	JE   done32

loop32:
	VMOVUPS (BX), Y4

	VBROADCASTSS (SI), Y5
	VMULPS  Y4, Y5, Y5
	VCVTPS2PH $0, Y5, X5
	VCVTPH2PS X5, Y5
	VADDPS  Y5, Y0, Y0

	VBROADCASTSS (R8), Y6
	VMULPS  Y4, Y6, Y6
	VCVTPS2PH $0, Y6, X6
	VCVTPH2PS X6, Y6
	VADDPS  Y6, Y1, Y1

	VBROADCASTSS (R9), Y7
	VMULPS  Y4, Y7, Y7
	VCVTPS2PH $0, Y7, X7
	VCVTPH2PS X7, Y7
	VADDPS  Y7, Y2, Y2

	VBROADCASTSS (R10), Y8
	VMULPS  Y4, Y8, Y8
	VCVTPS2PH $0, Y8, X8
	VCVTPH2PS X8, Y8
	VADDPS  Y8, Y3, Y3

	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $32, BX
	DECQ CX
	JNE  loop32

done32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func vcvtph2ps8(dst *float32, src *half.Float16, n int)
//
// Widens n binary16 values (n a multiple of 8) to float32, 8 per step.
TEXT ·vcvtph2ps8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
	JE   wdone

wloop:
	VCVTPH2PS (SI), Y0
	VMOVUPS Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNE  wloop

wdone:
	VZEROUPPER
	RET

// func hkernPH(ap *half.Float16, k int, b *[8]*half.Float16, c *[8]*float32, mask uint32, alpha float32)
//
// 32(i)×8(j) tile of AccumFP16 in native binary16 arithmetic (AVX512-FP16).
// Z8 holds A[l, i0..i0+31] (one 64-byte row of the packed panel); B column
// j0+r is based at R8, R9, R10, R11, R12, DX, BX, DI (r = 0..7) and AX is
// the byte offset of row l in each, so VMULPH's {1to32} broadcast operand
// reads B[l, j0+r] from storage in place (a separate VPBROADCASTW would
// cost a port-5 shuffle per broadcast); Z16+r holds the product and Z0..Z7
// are the eight 32-lane accumulators, one per B column. Each lane is one C
// element's chain, d = round16(d + round16(a·b)),
// over l = 0..k-1 in order — the F16C chain exactly: a binary16 product is
// exact in float32, so VMULPH's single rounding equals VMULPS + VCVTPS2PH,
// and 24 ≥ 2·11+1 makes the float32 round inside VADDPS + VCVTPS2PH
// innocuous (Figueroa's bound for addition), so VADDPH's single rounding
// equals that pair too.
// Operand order matches hkernOct16 — src1 = A in the multiply, src1 = the
// accumulator in the add — so a NaN input propagates the same payload.
//
// The step is PHSTEP (phstep_amd64.h), whose BYTE-encoded VMULPH/VADDPH fix
// the base registers above. k = 0 skips the loop: C = alpha·0. The epilogue widens each
// accumulator (VCVTPH2PS, exact), multiplies by alpha in float32 as
// hgemmOctAsm's Go epilogue does, and stores the rows mask enables.
TEXT ·hkernPH(SB), NOSPLIT, $0-40
	MOVQ ap+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ b+16(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), DX
	MOVQ 48(AX), BX
	MOVQ 56(AX), DI
	XORQ AX, AX // byte offset of row l in every B column
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ CX, CX
	JE   donePH

loopPH:
	PHSTEP
	ADDQ $64, SI
	ADDQ $2, AX
	DECQ CX
	JNE  loopPH

donePH:
	MOVQ c+24(FP), DI
	MOVL mask+32(FP), AX
	KMOVW AX, K1 // rows 0..15
	SHRL $16, AX
	KMOVW AX, K2 // rows 16..31
	VBROADCASTSS alpha+36(FP), Z31
	MOVQ 0(DI), R8
	VCVTPH2PS Y0, Z16
	VEXTRACTI64X4 $1, Z0, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 8(DI), R8
	VCVTPH2PS Y1, Z16
	VEXTRACTI64X4 $1, Z1, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 16(DI), R8
	VCVTPH2PS Y2, Z16
	VEXTRACTI64X4 $1, Z2, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 24(DI), R8
	VCVTPH2PS Y3, Z16
	VEXTRACTI64X4 $1, Z3, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 32(DI), R8
	VCVTPH2PS Y4, Z16
	VEXTRACTI64X4 $1, Z4, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 40(DI), R8
	VCVTPH2PS Y5, Z16
	VEXTRACTI64X4 $1, Z5, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 48(DI), R8
	VCVTPH2PS Y6, Z16
	VEXTRACTI64X4 $1, Z6, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	MOVQ 56(DI), R8
	VCVTPH2PS Y7, Z16
	VEXTRACTI64X4 $1, Z7, Y17
	VCVTPH2PS Y17, Z17
	VMULPS Z31, Z16, Z16
	VMULPS Z31, Z17, Z17
	VMOVUPS Z16, K1, (R8)
	VMOVUPS Z17, K2, 64(R8)
	VZEROUPPER
	RET

