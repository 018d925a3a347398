// AVX-512 GEMM tile with the top-2 selection folded in (GemmTop2's native
// tier). See fused.go for the dispatch and Top2AddRows in gemm.go for the
// value every lane must equal.

#include "textflag.h"

// FOLD folds one row of 16 lanes, acc, into the running state (b best, s
// second, ix best index) exactly as Top2AddRows does one row of a column:
// v = acc·alpha rounded, then v + norm rounded (two roundings, never an
// FMA); if v < b: s = b, b = v, ix = row; else if v < s: s = v. LT_OQ is
// false on NaN, so a NaN never wins, as with Go's <. Operand order is the
// scalar one: src1 = acc in the multiply and the add.
#define FOLD(acc, b, s, ix) \
	VMULPS    Z16, acc, acc; \
	VADDPS    Z24, acc, acc; \
	VCMPPS    $0x11, b, acc, K3; \
	VCMPPS    $0x11, s, acc, K4; \
	KANDNW    K4, K3, K4; \
	VMOVAPS   b, K3, s; \
	VMOVAPS   acc, K4, s; \
	VMOVAPS   acc, K3, b; \
	VMOVDQA32 Z23, K3, ix

// ROW folds tile row r (accumulators lo, hi; norm at off(R11)) into both
// halves of the state, then advances the row index in Z23 (Z25 is all
// ones, i.e. −1).
#define ROW(off, lo, hi) \
	VBROADCASTSS off(R11), Z24; \
	FOLD(lo, Z17, Z19, Z21); \
	FOLD(hi, Z18, Z20, Z22); \
	VPSUBD       Z25, Z23, Z23

// func top2Tile(b *float32, k int, a *float32, astride uintptr, rows, row0 int, norms, best, second *float32, idx *int32, alpha float32, mask uint32)
//
// Accumulators Z(2r) and Z(2r+1) hold row r of the tile for query columns
// j0..j0+15 and j0+16..j0+31: one sequential FMA chain over l = 0..k-1 per
// lane, started at +0, the chain kern8x8 computes for the same element.
// Operand roles are kern8x8's too — A (the broadcast) is src2, B src3 — so
// a NaN propagates the same payload. Row r's A column is based at R8+r;
// rows past the tile's count repeat row 0 (R8), are computed and are never
// folded. k ≥ 1.
TEXT ·top2Tile(SB), NOSPLIT, $0-88
	MOVQ b+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ astride+24(FP), AX
	MOVQ rows+32(FP), BX

	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	LEAQ (R14)(AX*1), R15
	CMPQ    BX, $2
	CMOVQLT R8, R9
	CMPQ    BX, $3
	CMOVQLT R8, R10
	CMPQ    BX, $4
	CMOVQLT R8, R11
	CMPQ    BX, $5
	CMOVQLT R8, R12
	CMPQ    BX, $6
	CMOVQLT R8, R13
	CMPQ    BX, $7
	CMOVQLT R8, R14
	CMPQ    BX, $8
	CMOVQLT R8, R15

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	XORQ   DX, DX // byte offset of row l in every A column

loop:
	VMOVUPS      (SI), Z16   // B[l, j0..j0+15]
	VMOVUPS      64(SI), Z17 // B[l, j0+16..j0+31]
	VBROADCASTSS (R8)(DX*1), Z18
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z1
	VBROADCASTSS (R9)(DX*1), Z19
	VFMADD231PS  Z16, Z19, Z2
	VFMADD231PS  Z17, Z19, Z3
	VBROADCASTSS (R10)(DX*1), Z20
	VFMADD231PS  Z16, Z20, Z4
	VFMADD231PS  Z17, Z20, Z5
	VBROADCASTSS (R11)(DX*1), Z21
	VFMADD231PS  Z16, Z21, Z6
	VFMADD231PS  Z17, Z21, Z7
	VBROADCASTSS (R12)(DX*1), Z22
	VFMADD231PS  Z16, Z22, Z8
	VFMADD231PS  Z17, Z22, Z9
	VBROADCASTSS (R13)(DX*1), Z23
	VFMADD231PS  Z16, Z23, Z10
	VFMADD231PS  Z17, Z23, Z11
	VBROADCASTSS (R14)(DX*1), Z24
	VFMADD231PS  Z16, Z24, Z12
	VFMADD231PS  Z17, Z24, Z13
	VBROADCASTSS (R15)(DX*1), Z25
	VFMADD231PS  Z16, Z25, Z14
	VFMADD231PS  Z17, Z25, Z15
	ADDQ         $128, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          loop

	// State: Z17/Z18 best, Z19/Z20 second, Z21/Z22 idx (lanes 0..15 and
	// 16..31); K1/K2 enable the panel's real lanes of each half.
	MOVL      mask+84(FP), AX
	KMOVW     AX, K1
	SHRL      $16, AX
	KMOVW     AX, K2
	MOVQ      best+56(FP), R8
	MOVQ      second+64(FP), R9
	MOVQ      idx+72(FP), R10
	VMOVUPS   (R8), K1, Z17
	VMOVUPS   64(R8), K2, Z18
	VMOVUPS   (R9), K1, Z19
	VMOVUPS   64(R9), K2, Z20
	VMOVDQU32 (R10), K1, Z21
	VMOVDQU32 64(R10), K2, Z22

	VBROADCASTSS alpha+80(FP), Z16
	MOVQ         row0+40(FP), AX
	VPBROADCASTD AX, Z23
	VPTERNLOGD   $0xff, Z25, Z25, Z25
	MOVQ         norms+48(FP), R11

	// Rows in ascending order; stop after the tile's last real row.
	ROW(0, Z0, Z1)
	CMPQ BX, $1
	JEQ  store
	ROW(4, Z2, Z3)
	CMPQ BX, $2
	JEQ  store
	ROW(8, Z4, Z5)
	CMPQ BX, $3
	JEQ  store
	ROW(12, Z6, Z7)
	CMPQ BX, $4
	JEQ  store
	ROW(16, Z8, Z9)
	CMPQ BX, $5
	JEQ  store
	ROW(20, Z10, Z11)
	CMPQ BX, $6
	JEQ  store
	ROW(24, Z12, Z13)
	CMPQ BX, $7
	JEQ  store
	ROW(28, Z14, Z15)

store:
	VMOVUPS   Z17, K1, (R8)
	VMOVUPS   Z18, K2, 64(R8)
	VMOVUPS   Z19, K1, (R9)
	VMOVUPS   Z20, K2, 64(R9)
	VMOVDQU32 Z21, K1, (R10)
	VMOVDQU32 Z22, K2, 64(R10)
	VZEROUPPER
	RET
