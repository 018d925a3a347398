// AVX-512 evaluation of math.Exp and math.Atan2, eight float64 lanes at a
// time (the descriptor's and the orientation's evaluate passes). See
// eval_amd64.go for the dispatch and eval.go for the contract: every lane
// the kernel does not flag in special holds exactly the bits Go's math
// returns for it, and the Go wrapper recomputes the flagged lanes with
// math itself.
//
// exp8 replays the FMA branch of GOROOT's math/exp_amd64.s op for op, which
// is the branch math.Exp takes wherever this tier runs (useAVX512 implies
// AVX2 + FMA, Go's own useFMA condition). atan2x8 replays the pure-Go
// atan2/satan/xatan (amd64 has no Atan2 assembly): separate multiplies,
// adds and divides, never an FMA, because Go does not fuse them on amd64.
// satan's two range-reduction branches become masks.
//
// Each group of eight lanes takes the mask K1 of its real lanes: all eight,
// or the low count when fewer remain. Loads zero the lanes outside it and
// stores leave them alone, so a slice needs no padding.

#include "textflag.h"

DATA evalc<>+0(SB)/8, $700.0                                        // exp's generic domain: |x| <= 700
DATA evalc<>+8(SB)/8, $0x7fffffffffffffff                           // |·| mask
DATA evalc<>+16(SB)/8, $1.4426950408889634073599246810018920        // LOG2E
DATA evalc<>+24(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA evalc<>+32(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA evalc<>+40(SB)/8, $0.0625
DATA evalc<>+48(SB)/8, $2.4801587301587301587e-5                    // exp's Taylor coefficients, 1/8! …
DATA evalc<>+56(SB)/8, $1.9841269841269841270e-4
DATA evalc<>+64(SB)/8, $1.3888888888888888889e-3
DATA evalc<>+72(SB)/8, $8.3333333333333333333e-3
DATA evalc<>+80(SB)/8, $4.1666666666666666667e-2
DATA evalc<>+88(SB)/8, $1.6666666666666666667e-1                    // … 1/3!
DATA evalc<>+96(SB)/8, $0.5
DATA evalc<>+104(SB)/8, $1.0
DATA evalc<>+112(SB)/8, $2.0
DATA evalc<>+120(SB)/8, $1023                                       // exponent bias (int64)
DATA evalc<>+128(SB)/8, $1.5707963267948966                         // Pi/2
DATA evalc<>+136(SB)/8, $0.7853981633974483                         // Pi/4
DATA evalc<>+144(SB)/8, $6.123233995736765886130e-17                // Morebits
DATA evalc<>+152(SB)/8, $3.061616997868382943065e-17                // 0.5·Morebits
DATA evalc<>+160(SB)/8, $3.141592653589793                          // Pi
DATA evalc<>+168(SB)/8, $0x7ff0000000000000                         // +Inf
DATA evalc<>+176(SB)/8, $0.66
DATA evalc<>+184(SB)/8, $2.41421356237309504880                     // Tan3pio8
DATA evalc<>+192(SB)/8, $-8.750608600031904122785e-01               // xatan's P0 … P4
DATA evalc<>+200(SB)/8, $-1.615753718733365076637e+01
DATA evalc<>+208(SB)/8, $-7.500855792314704667340e+01
DATA evalc<>+216(SB)/8, $-1.228866684490136173410e+02
DATA evalc<>+224(SB)/8, $-6.485021904942025371773e+01
DATA evalc<>+232(SB)/8, $2.485846490142306297962e+01                // xatan's Q0 … Q4
DATA evalc<>+240(SB)/8, $1.650270098316988542046e+02
DATA evalc<>+248(SB)/8, $4.328810604912902668951e+02
DATA evalc<>+256(SB)/8, $4.853903996359136964868e+02
DATA evalc<>+264(SB)/8, $1.945506571482613964425e+02
GLOBL evalc<>(SB), RODATA|NOPTR, $272

// LANEMASK sets K1 to the group's real lanes, the low min(CX, 8). AX is
// clobbered, BX too.
#define LANEMASK \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	MOVQ    $0xff, BX; \
	CMPQ    CX, $8; \
	CMOVQGE BX, AX; \
	KMOVW   AX, K1

// func exp8(dst, x []float64, special []uint8)
//
// dst[i] = exp(x[i]) for i < len(dst) by math/exp_amd64.s's avxfma branch;
// special[g] bit j flags lane 8g+j when |x| > 700 or x is NaN, where that
// branch's overflow, underflow and denormal exits (or the non-finite ones)
// apply and this chain does not. Per lane: e = round(x·LOG2E) (VCVTPD2DQ,
// as CVTSD2SL, in the current rounding mode), x −= e·LN2U and x −= e·LN2L
// fused, x ·= 1/16, the Taylor chain fused from 1/8! down to 1, x ·= that,
// three x ·= x+2, then x = (x+2)·x + 1 fused, and x·2^e with 2^e built by
// shifting e+1023 into the exponent field (e+1023 is in [13, 2033] on the
// generic domain).
//
// DI dst, SI x, R8 special, CX lanes left.
TEXT ·exp8(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ special_base+48(FP), R8

	VBROADCASTSD evalc<>+0(SB), Z16
	VBROADCASTSD evalc<>+8(SB), Z17
	VBROADCASTSD evalc<>+16(SB), Z18
	VBROADCASTSD evalc<>+24(SB), Z19
	VBROADCASTSD evalc<>+32(SB), Z20
	VBROADCASTSD evalc<>+40(SB), Z21
	VBROADCASTSD evalc<>+48(SB), Z22
	VBROADCASTSD evalc<>+56(SB), Z23
	VBROADCASTSD evalc<>+64(SB), Z24
	VBROADCASTSD evalc<>+72(SB), Z25
	VBROADCASTSD evalc<>+80(SB), Z26
	VBROADCASTSD evalc<>+88(SB), Z27
	VBROADCASTSD evalc<>+96(SB), Z28
	VBROADCASTSD evalc<>+104(SB), Z29
	VBROADCASTSD evalc<>+112(SB), Z30
	VBROADCASTSD evalc<>+120(SB), Z31

eloop:
	TESTQ CX, CX
	JLE   edone
	LANEMASK
	VMOVUPD.Z (SI), K1, Z0
	VPANDQ    Z17, Z0, Z1
	VCMPPD    $0x16, Z16, Z1, K1, K2 // NLE_UQ: |x| > 700 or NaN
	KMOVW     K2, AX
	MOVB      AX, (R8)

	VMULPD       Z18, Z0, Z1
	VCVTPD2DQ    Z1, Y2
	VCVTDQ2PD    Y2, Z1
	VFNMADD231PD Z19, Z1, Z0
	VFNMADD231PD Z20, Z1, Z0
	VMULPD       Z21, Z0, Z0
	VMOVAPD      Z22, Z1
	VFMADD213PD  Z23, Z0, Z1
	VFMADD213PD  Z24, Z0, Z1
	VFMADD213PD  Z25, Z0, Z1
	VFMADD213PD  Z26, Z0, Z1
	VFMADD213PD  Z27, Z0, Z1
	VFMADD213PD  Z28, Z0, Z1
	VFMADD213PD  Z29, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z30, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z30, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z30, Z0, Z1
	VMULPD       Z1, Z0, Z0
	VADDPD       Z30, Z0, Z1
	VFMADD213PD  Z29, Z1, Z0

	VPMOVSXDQ Y2, Z1
	VPADDQ    Z31, Z1, Z1
	VPSLLQ    $52, Z1, Z1
	VMULPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	INCQ R8
	SUBQ $8, CX
	JMP  eloop

edone:
	VZEROUPPER
	RET

// func atan2x8(dst, y, x []float64, special []uint8)
//
// dst[i] = atan2(y[i], x[i]) for i < len(dst) by GOROOT's math/atan2.go,
// atan.go; special[g] bit j flags lane 8g+j when x or y is zero or not
// finite, or y/x is zero or infinite: atan2's special cases and atan's
// x == 0 exit. One test covers them all, |y/x| in (0, +Inf), because a
// zero or non-finite operand makes y/x ±0, ±Inf or NaN. Elsewhere, per
// lane: q = y/x, a = |q|, and satan(a) with
// its branches as masks, K4 = a > 0.66 and K5 = a > Tan3pio8 (K5 within
// K4). xatan runs once, on t = a, (a−1)/(a+1) under K4 or 1/a under K5,
// taken as one divide whose numerator and denominator the masks pick (a/1
// is exact). Then atan(q) = satan(a) with q's sign (Go's −satan(−q) is a
// sign flip), and for x < 0 that ±π: q+Pi where it is <= 0, q−Pi
// elsewhere.
//
// DI dst, SI y, DX x, R8 special, CX lanes left.
TEXT ·atan2x8(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ special_base+72(FP), R8

	VBROADCASTSD evalc<>+128(SB), Z11 // Pi/2
	VBROADCASTSD evalc<>+136(SB), Z12 // Pi/4
	VBROADCASTSD evalc<>+144(SB), Z13 // Morebits
	VBROADCASTSD evalc<>+152(SB), Z14 // 0.5·Morebits
	VBROADCASTSD evalc<>+160(SB), Z15 // Pi
	VBROADCASTSD evalc<>+8(SB), Z16   // |·| mask
	VPXORQ       Z17, Z17, Z17        // 0
	VBROADCASTSD evalc<>+168(SB), Z18 // +Inf
	VBROADCASTSD evalc<>+104(SB), Z19 // 1
	VBROADCASTSD evalc<>+176(SB), Z20 // 0.66
	VBROADCASTSD evalc<>+184(SB), Z21 // Tan3pio8
	VBROADCASTSD evalc<>+192(SB), Z22 // P0 … P4
	VBROADCASTSD evalc<>+200(SB), Z23
	VBROADCASTSD evalc<>+208(SB), Z24
	VBROADCASTSD evalc<>+216(SB), Z25
	VBROADCASTSD evalc<>+224(SB), Z26
	VBROADCASTSD evalc<>+232(SB), Z27 // Q0 … Q4
	VBROADCASTSD evalc<>+240(SB), Z28
	VBROADCASTSD evalc<>+248(SB), Z29
	VBROADCASTSD evalc<>+256(SB), Z30
	VBROADCASTSD evalc<>+264(SB), Z31

aloop:
	TESTQ CX, CX
	JLE   adone
	LANEMASK
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DX), K1, Z1
	VDIVPD    Z1, Z0, Z2 // q = y/x
	VPANDQ    Z16, Z2, Z5 // a = |q|

	// K2: the real lanes whose a is in (0, +Inf). Those are exactly the
	// lanes with y and x finite and nonzero and y/x neither 0 nor ±Inf:
	// a zero or non-finite y or x makes q ±0, ±Inf or NaN.
	VCMPPD $0x1e, Z17, Z5, K1, K2 // GT_OQ
	VCMPPD $0x11, Z18, Z5, K2, K2 // LT_OQ
	KXORW  K2, K1, K3
	KMOVW  K3, AX
	MOVB   AX, (R8)

	// satan's argument t = Z6/Z7.
	VCMPPD  $0x1e, Z20, Z5, K4
	VCMPPD  $0x1e, Z21, Z5, K5
	VMOVAPD Z5, Z6
	VMOVAPD Z19, Z7
	VSUBPD  Z19, Z5, K4, Z6 // a − 1
	VADDPD  Z19, Z5, K4, Z7 // a + 1
	VMOVAPD Z19, K5, Z6     // 1
	VMOVAPD Z5, K5, Z7      // a
	VDIVPD  Z7, Z6, Z6      // t

	// xatan(t): z = t·t; z = z·P(z) / Q(z); t·z + t.
	VMULPD Z6, Z6, Z7
	VMULPD Z22, Z7, Z8
	VADDPD Z23, Z8, Z8
	VMULPD Z7, Z8, Z8
	VADDPD Z24, Z8, Z8
	VMULPD Z7, Z8, Z8
	VADDPD Z25, Z8, Z8
	VMULPD Z7, Z8, Z8
	VADDPD Z26, Z8, Z8
	VADDPD Z27, Z7, Z9
	VMULPD Z7, Z9, Z9
	VADDPD Z28, Z9, Z9
	VMULPD Z7, Z9, Z9
	VADDPD Z29, Z9, Z9
	VMULPD Z7, Z9, Z9
	VADDPD Z30, Z9, Z9
	VMULPD Z7, Z9, Z9
	VADDPD Z31, Z9, Z9
	VMULPD Z8, Z7, Z7
	VDIVPD Z9, Z7, Z7
	VMULPD Z7, Z6, Z7
	VADDPD Z6, Z7, Z7

	// satan(a): Pi/4 + p + 0.5·Morebits under K4, Pi/2 − p + Morebits
	// under K5, p elsewhere.
	VSUBPD  Z7, Z11, Z8
	VADDPD  Z13, Z8, Z8
	VADDPD  Z12, Z7, Z9
	VADDPD  Z14, Z9, Z9
	VMOVAPD Z9, K4, Z7
	VMOVAPD Z8, K5, Z7

	// atan(q), then the quadrant for x < 0.
	VPANDNQ Z2, Z16, Z8
	VPXORQ  Z8, Z7, Z7
	VADDPD  Z15, Z7, Z8
	VSUBPD  Z15, Z7, Z9
	VCMPPD  $0x12, Z17, Z7, K6 // LE_OQ: atan(q) <= 0
	VMOVAPD Z8, K6, Z9
	VCMPPD  $0x11, Z17, Z1, K7 // LT_OQ: x < 0
	VMOVAPD Z9, K7, Z7
	VMOVUPD Z7, K1, (DI)

	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	INCQ R8
	SUBQ $8, CX
	JMP  aloop

adone:
	VZEROUPPER
	RET
