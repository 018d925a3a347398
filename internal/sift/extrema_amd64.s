// AVX-512 candidate masks for detectExtrema, sixteen DoG centres at a time.
// See extrema_amd64.go for the contract and candidates in detect.go for the
// scalar chain it must equal: a centre v is a candidate when
// !(|v| < thr) and, for v > 0, no neighbour is >= v, or, for v not > 0
// (±0 and NaN included), no neighbour is <= v.
//
// The 26 neighbours fold into a running maximum and minimum that start at
// −Inf and +Inf. VMAXPS and VMINPS return their second source operand
// (Intel order) when either input is NaN, and the accumulator is that
// operand, so a NaN neighbour leaves it as it was: it never rejects, as in
// the scalar chain, where every compare with NaN is false. The accumulator
// itself is never NaN. The tests are then !(max >= v), NGE_UQ, on the
// lanes with v > 0 and !(min <= v), NLE_UQ, on the others; a NaN centre is
// unordered against any accumulator, so it passes. ±0 compare equal to
// each other, as they do in Go. The contrast test compares |v| with t32,
// the least float32 >= thr, by NLT_UQ: for a float32 |v|, |v| < thr exactly
// when |v| < t32, and a NaN |v| or t32 fails the compare and passes the
// test, as it does in float64.
//
// Each block of sixteen takes the mask K1 of its real centres: all
// sixteen, or the low count when fewer remain. Loads zero the lanes
// outside it, so no pixel past the slice is read, and every compare is
// masked to it, so those lanes come out clear.

#include "textflag.h"

DATA extc<>+0(SB)/4, $0x7fffffff // |·| mask
DATA extc<>+4(SB)/4, $0xff800000 // −Inf
DATA extc<>+8(SB)/4, $0x7f800000 // +Inf
GLOBL extc<>(SB), RODATA|NOPTR, $12

// NB folds the sixteen neighbours at addr into the maximum Z2 and the
// minimum Z3, each the second source, so a NaN neighbour leaves them be.
#define NB(addr) \
	VMOVUPS.Z addr, K1, Z0; \
	VMAXPS    Z2, Z0, Z2; \
	VMINPS    Z3, Z0, Z3

// func extrema16(mask []uint16, d0, d1, d2 []float32, stride int, t32 float32)
//
// DI mask, R8 d0, R9 d1, R10 d2 at the block's top-left neighbour, DX the
// stride and R11 twice it in bytes, CX centres left.
TEXT ·extrema16(SB), NOSPLIT, $0-108
	MOVQ mask_base+0(FP), DI
	MOVQ d0_base+24(FP), R8
	MOVQ d1_base+48(FP), R9
	MOVQ d1_len+56(FP), CX
	MOVQ d2_base+72(FP), R10
	MOVQ stride+96(FP), DX
	LEAQ (DX)(DX*1), R11
	SUBQ R11, CX
	SUBQ $2, CX
	SHLQ $2, DX
	SHLQ $2, R11

	VBROADCASTSS t32+104(FP), Z16
	VPBROADCASTD extc<>+0(SB), Z17
	VBROADCASTSS extc<>+4(SB), Z18
	VBROADCASTSS extc<>+8(SB), Z19
	VPXORD       Z20, Z20, Z20

loop:
	TESTQ   CX, CX
	JLE     done
	MOVQ    $1, AX
	SHLQ    CX, AX
	DECQ    AX
	MOVQ    $0xffff, BX
	CMPQ    CX, $16
	CMOVQGE BX, AX
	KMOVW   AX, K1

	VMOVUPS.Z 4(R9)(DX*1), K1, Z1 // v
	VMOVAPS   Z18, Z2
	VMOVAPS   Z19, Z3
	NB((R8))
	NB(4(R8))
	NB(8(R8))
	NB((R8)(DX*1))
	NB(4(R8)(DX*1))
	NB(8(R8)(DX*1))
	NB((R8)(R11*1))
	NB(4(R8)(R11*1))
	NB(8(R8)(R11*1))
	NB((R9))
	NB(4(R9))
	NB(8(R9))
	NB((R9)(DX*1))
	NB(8(R9)(DX*1))
	NB((R9)(R11*1))
	NB(4(R9)(R11*1))
	NB(8(R9)(R11*1))
	NB((R10))
	NB(4(R10))
	NB(8(R10))
	NB((R10)(DX*1))
	NB(4(R10)(DX*1))
	NB(8(R10)(DX*1))
	NB((R10)(R11*1))
	NB(4(R10)(R11*1))
	NB(8(R10)(R11*1))

	VCMPPS $0x1e, Z20, Z1, K1, K2 // GT_OQ: v > 0
	VCMPPS $0x19, Z1, Z2, K2, K3  // NGE_UQ: !(max >= v), where v > 0
	KANDNW K1, K2, K4             // the real lanes with v not > 0
	VCMPPS $0x16, Z1, Z3, K4, K4  // NLE_UQ: !(min <= v) there
	KORW   K3, K4, K3
	VPANDD Z17, Z1, Z0
	VCMPPS $0x15, Z16, Z0, K3, K3 // NLT_UQ: !(|v| < t32)
	KMOVW  K3, AX
	MOVW   AX, (DI)

	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $2, DI
	SUBQ $16, CX
	JMP  loop

done:
	VZEROUPPER
	RET
