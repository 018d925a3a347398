// AVX512-FP16 GEMM tile with the top-2 selection folded in (HGemmTop2's
// native tier). See hfused.go for the dispatch; the value every lane must
// equal is HGemmTNBlocks' C element, scaled by inv, through Top2AddRows.

#include "textflag.h"
#include "phstep_amd64.h"

// FOLD folds one row of 16 lanes, v (the widened accumulator), into the
// running state (b best, s second, ix best index) exactly as the fallback
// does one element: v·alpha rounded (HGemmTNBlocks' epilogue), then ·inv
// rounded (the unscale), then + norm rounded (Top2AddRows) — three
// roundings, never fused; then if v < b: s = b, b = v, ix = row; else if
// v < s: s = v. LT_OQ is false on NaN, so a NaN never wins, as with Go's <.
#define FOLD(v, b, s, ix) \
	VMULPS    Z15, v, v; \
	VMULPS    Z16, v, v; \
	VADDPS    Z17, v, v; \
	VCMPPS    $0x11, b, v, K3; \
	VCMPPS    $0x11, s, v, K4; \
	KANDNW    K4, K3, K4; \
	VMOVAPS   b, K3, s; \
	VMOVAPS   v, K4, s; \
	VMOVAPS   v, K3, b; \
	VMOVDQA32 Z18, K3, ix

// ROW folds tile row r — accumulator Zr, whose low half is Yr — with its
// norm at off(R11) into both halves of the state: VCVTPH2PS widens query
// columns 0..15 and 16..31 exactly. Then it advances the row index in Z18
// (Z19 is all ones, i.e. −1).
#define ROW(off, y, z) \
	VBROADCASTSS  off(R11), Z17; \
	VCVTPH2PS     y, Z20; \
	VEXTRACTI64X4 $1, z, Y21; \
	VCVTPH2PS     Y21, Z21; \
	FOLD(Z20, Z9, Z11, Z13); \
	FOLD(Z21, Z10, Z12, Z14); \
	VPSUBD        Z19, Z18, Z18

// func hgemmTop2Tile(b *half.Float16, k int, a *half.Float16, astride uintptr, rows, row0 int, norms, best, second *float32, idx *int32, alpha, inv float32, mask uint32)
//
// hkernPH's loop with the operand roles swapped: the packed panel at SI is
// B's, b[l*32+c] = B[l, j0+c], so the 32 binary16 lanes of accumulator Zr
// are query columns j0..j0+31 of tile row r, and row r's A column is based
// at R8, R9, R10, R11, R12, DX, BX, DI (r = 0..7), broadcast {1to32} from
// storage in place; AX is the byte offset of row l in each. Each lane is
// one chain d = round16(d + round16(b·a)) over l = 0..k-1 from +0, the
// C element's chain: multiplication commutes, and the swapped operand
// order decides only which NaN payload propagates, and a NaN is never
// selected. Rows past the tile's count repeat row 0 (R8), are computed and
// are never folded. k ≥ 1.
TEXT ·hgemmTop2Tile(SB), NOSPLIT, $0-92
	MOVQ b+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ astride+24(FP), AX
	MOVQ rows+32(FP), R13

	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), DX
	LEAQ (DX)(AX*1), BX
	LEAQ (BX)(AX*1), DI
	CMPQ    R13, $2
	CMOVQLT R8, R9
	CMPQ    R13, $3
	CMOVQLT R8, R10
	CMPQ    R13, $4
	CMOVQLT R8, R11
	CMPQ    R13, $5
	CMOVQLT R8, R12
	CMPQ    R13, $6
	CMOVQLT R8, DX
	CMPQ    R13, $7
	CMOVQLT R8, BX
	CMPQ    R13, $8
	CMOVQLT R8, DI
	XORQ    AX, AX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

loop:
	PHSTEP
	ADDQ $64, SI
	ADDQ $2, AX
	DECQ CX
	JNE  loop

	// State: Z9/Z10 best, Z11/Z12 second, Z13/Z14 idx (lanes 0..15 and
	// 16..31); K1/K2 enable the panel's real lanes of each half.
	MOVL      mask+88(FP), AX
	KMOVW     AX, K1
	SHRL      $16, AX
	KMOVW     AX, K2
	MOVQ      best+56(FP), R8
	MOVQ      second+64(FP), R9
	MOVQ      idx+72(FP), R10
	VMOVUPS   (R8), K1, Z9
	VMOVUPS   64(R8), K2, Z10
	VMOVUPS   (R9), K1, Z11
	VMOVUPS   64(R9), K2, Z12
	VMOVDQU32 (R10), K1, Z13
	VMOVDQU32 64(R10), K2, Z14

	VBROADCASTSS alpha+80(FP), Z15
	VBROADCASTSS inv+84(FP), Z16
	MOVQ         row0+40(FP), AX
	VPBROADCASTD AX, Z18
	VPTERNLOGD   $0xff, Z19, Z19, Z19
	MOVQ         norms+48(FP), R11

	// Rows in ascending order; stop after the tile's last real row.
	ROW(0, Y0, Z0)
	CMPQ R13, $1
	JEQ  store
	ROW(4, Y1, Z1)
	CMPQ R13, $2
	JEQ  store
	ROW(8, Y2, Z2)
	CMPQ R13, $3
	JEQ  store
	ROW(12, Y3, Z3)
	CMPQ R13, $4
	JEQ  store
	ROW(16, Y4, Z4)
	CMPQ R13, $5
	JEQ  store
	ROW(20, Y5, Z5)
	CMPQ R13, $6
	JEQ  store
	ROW(24, Y6, Z6)
	CMPQ R13, $7
	JEQ  store
	ROW(28, Y7, Z7)

store:
	VMOVUPS   Z9, K1, (R8)
	VMOVUPS   Z10, K2, 64(R8)
	VMOVUPS   Z11, K1, (R9)
	VMOVUPS   Z12, K2, 64(R9)
	VMOVDQU32 Z13, K1, (R10)
	VMOVDQU32 Z14, K2, 64(R10)
	VZEROUPPER
	RET
