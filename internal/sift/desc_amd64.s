// AVX-512 prep of the descriptor scatter, eight float64 lanes at a time.
// See desc_amd64.go for the contract and prepPixel in descriptor.go for
// the chain every unflagged lane must equal, op for op: the magnitude as a
// separate multiply, multiply, add and square root (Go never fuses them
// on amd64), the two angle wraps, ob = (ang/2π)·8, v = mag·w, the floors,
// the fractions, and the eight shares as the same products in the same
// order. Multiplication commutes bit for bit on the unflagged lanes,
// which hold no NaN, so the operand order of each product is free.
//
// The wrap loops run masked to the lanes whose inputs are finite and in
// range (K2), and repeat while any of them still needs a turn, as Go's
// for loops do per pixel; the lanes past c.n and the flagged ones never
// take part, so a non-finite angle cannot spin them. The floors are
// VRNDSCALEPD round-down, exact for every finite value, plus +0 (Go's int
// round trip makes a −0 floor +0). The bins come out
// of float64 arithmetic on small integers, exact, then VCVTTPD2DQ and VEX
// YMM integer adds and masks (o0+1 and o0 wrap & 7), sign-extended to int.
//
// Each group of eight lanes takes the mask K1 of its real lanes: loads
// zero the lanes outside it and stores leave them alone.

#include "textflag.h"
#include "go_asm.h"

DATA descc<>+0(SB)/8, $0x401921fb54442d18  // 2π
DATA descc<>+8(SB)/8, $8.0                 // descBins
DATA descc<>+16(SB)/8, $1.0
DATA descc<>+24(SB)/8, $6.0                // descWidth + 2
DATA descc<>+32(SB)/8, $0x7fffffffffffffff // |·| mask
DATA descc<>+40(SB)/8, $0x7ff0000000000000 // +Inf
DATA descc<>+48(SB)/8, $-1.0
DATA descc<>+56(SB)/8, $4.0                // descWidth
DATA descc<>+64(SB)/4, $7                  // descBins − 1 (int32)
DATA descc<>+68(SB)/4, $1                  // (int32)
GLOBL descc<>(SB), RODATA|NOPTR, $72

#define LANEMASK \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	MOVQ    $0xff, BX; \
	CMPQ    CX, $8; \
	CMOVQGE BX, AX; \
	KMOVW   AX, K1

// FINITE keeps in K2 only the lanes of z that are finite.
#define FINITE(z) \
	VPANDQ Z21, z, Z13; \
	VCMPPD $0x11, Z22, Z13, K2, K2

// INBIN keeps in K2 only the lanes of z in (−1, descWidth), which NaN is
// not.
#define INBIN(z) \
	VCMPPD $0x1e, Z24, z, K2, K2; \
	VCMPPD $0x11, Z25, z, K2, K2

#define SHARE(k) (descChunk_share+k*const_evalChunk*8)(R9)

// func descBins8(c *descChunk, angle float64, special *[evalChunk / 8]uint8)
//
// R9 c at the group's lane (every array of c is indexed by it), R8
// special, CX lanes left.
TEXT ·descBins8(SB), NOSPLIT, $0-24
	MOVQ c+0(FP), R9
	MOVQ gradChunk_n(R9), CX
	MOVQ special+16(FP), R8

	VBROADCASTSD angle+8(FP), Z16
	VBROADCASTSD descc<>+0(SB), Z17
	VBROADCASTSD descc<>+8(SB), Z18
	VBROADCASTSD descc<>+16(SB), Z19
	VBROADCASTSD descc<>+24(SB), Z20
	VBROADCASTSD descc<>+32(SB), Z21
	VBROADCASTSD descc<>+40(SB), Z22
	VPXORQ       Z23, Z23, Z23
	VBROADCASTSD descc<>+48(SB), Z24
	VBROADCASTSD descc<>+56(SB), Z25
	VPBROADCASTD descc<>+64(SB), Y14
	VPBROADCASTD descc<>+68(SB), Y15

loop:
	TESTQ CX, CX
	JLE   done
	LANEMASK
	VMOVUPD.Z gradChunk_gx(R9), K1, Z0
	VMOVUPD.Z gradChunk_gy(R9), K1, Z1
	VMOVUPD.Z gradChunk_ang(R9), K1, Z2
	VMOVUPD.Z gradChunk_w(R9), K1, Z3
	VMOVUPD.Z descChunk_bx(R9), K1, Z4
	VMOVUPD.Z descChunk_by(R9), K1, Z5

	// K2: the real lanes whose ang − angle is finite and whose bx and by
	// are in range. A non-finite gradient needs no test of its own: it
	// makes the magnitude, and so v, non-finite, and v is tested below.
	VSUBPD Z16, Z2, Z2
	KMOVW  K1, K2
	FINITE(Z2)
	INBIN(Z4)
	INBIN(Z5)

	// mag = sqrt(gx·gx + gy·gy)
	VMULPD  Z0, Z0, Z6
	VMULPD  Z1, Z1, Z7
	VADDPD  Z7, Z6, Z6
	VSQRTPD Z6, Z6

	// for ang < 0 { ang += 2π }; for ang >= 2π { ang −= 2π }
up:
	VCMPPD   $0x11, Z23, Z2, K2, K3 // LT_OQ: ang < 0
	KORTESTW K3, K3
	JZ       down
	VADDPD   Z17, Z2, K3, Z2
	JMP      up

down:
	VCMPPD   $0x1d, Z17, Z2, K2, K3 // GE_OQ: ang >= 2π
	KORTESTW K3, K3
	JZ       wrapped
	VSUBPD   Z17, Z2, K3, Z2
	JMP      down

wrapped:
	VDIVPD Z17, Z2, Z2 // ang / 2π
	VMULPD Z18, Z2, Z2 // ob
	VMULPD Z3, Z6, Z6  // v = mag·w
	FINITE(Z6)
	FINITE(Z2)
	KANDNW K1, K2, K3
	KMOVW  K3, AX
	MOVB   AX, (R8)

	// x0, y0, o0 and the fractions fx, fy, fo. Go subtracts float64(int(·))
	// of each floor, which is +0 where the floor is −0, so +0 is added to
	// each: it turns −0 into +0 and leaves every other value be.
	VRNDSCALEPD $0x09, Z4, Z7
	VRNDSCALEPD $0x09, Z5, Z8
	VRNDSCALEPD $0x09, Z2, Z9
	VADDPD      Z23, Z7, Z7
	VADDPD      Z23, Z8, Z8
	VADDPD      Z23, Z9, Z9
	VSUBPD      Z7, Z4, Z4
	VSUBPD      Z8, Z5, Z5
	VSUBPD      Z9, Z2, Z2

	// base = ((y0+1)·(descWidth+2) + x0 + 1)·descBins; i0 = base + o0&7,
	// i1 = base + (o0+1)&7.
	VADDPD     Z19, Z8, Z8
	VMULPD     Z20, Z8, Z8
	VADDPD     Z7, Z8, Z8
	VADDPD     Z19, Z8, Z8
	VMULPD     Z18, Z8, Z8
	VCVTTPD2DQ Z8, Y8
	VCVTTPD2DQ Z9, Y9
	VPADDD     Y15, Y9, Y10
	VPAND      Y14, Y10, Y10
	VPAND      Y14, Y9, Y9
	VPADDD     Y8, Y9, Y9
	VPADDD     Y8, Y10, Y10
	VPMOVSXDQ  Y9, Z9
	VPMOVSXDQ  Y10, Z10
	VMOVDQU64  Z9, K1, descChunk_i0(R9)
	VMOVDQU64  Z10, K1, descChunk_i1(R9)

	// v0 = v·(1−fy), v1 = v·fy; v00 = v0·(1−fx), v01 = v0·fx, v10, v11;
	// the shares v00·(1−fo), v00·fo, v01·(1−fo), … in prepPixel's order.
	VSUBPD  Z5, Z19, Z11
	VMULPD  Z11, Z6, Z11
	VMULPD  Z5, Z6, Z12
	VSUBPD  Z4, Z19, Z13
	VMULPD  Z13, Z11, Z0
	VMULPD  Z4, Z11, Z1
	VMULPD  Z13, Z12, Z3
	VMULPD  Z4, Z12, Z5
	VSUBPD  Z2, Z19, Z7
	VMULPD  Z7, Z0, Z8
	VMOVUPD Z8, K1, SHARE(0)
	VMULPD  Z2, Z0, Z8
	VMOVUPD Z8, K1, SHARE(1)
	VMULPD  Z7, Z1, Z8
	VMOVUPD Z8, K1, SHARE(2)
	VMULPD  Z2, Z1, Z8
	VMOVUPD Z8, K1, SHARE(3)
	VMULPD  Z7, Z3, Z8
	VMOVUPD Z8, K1, SHARE(4)
	VMULPD  Z2, Z3, Z8
	VMOVUPD Z8, K1, SHARE(5)
	VMULPD  Z7, Z5, Z8
	VMOVUPD Z8, K1, SHARE(6)
	VMULPD  Z2, Z5, Z8
	VMOVUPD Z8, K1, SHARE(7)

	ADDQ $64, R9
	INCQ R8
	SUBQ $8, CX
	JMP  loop

done:
	VZEROUPPER
	RET

// The gathers: the window pixels of one row run, eight lanes at a time,
// into the chunk's lanes from c.n on. Their chains have no special case
// (float32 subtractions, widened exactly, and float64 products, sums and
// quotients, each rounded as Go rounds it), so no lane is flagged. R9
// walks c at the group's lane; SI walks the run's row above, DX is the
// row stride in bytes, so the row itself is at SI+DX and the one below at
// SI+2·DX. The last group's loads and stores are masked to its real lanes.

DATA gathc<>+0(SB)/8, $0.0
DATA gathc<>+8(SB)/8, $1.0
DATA gathc<>+16(SB)/8, $2.0
DATA gathc<>+24(SB)/8, $3.0
DATA gathc<>+32(SB)/8, $4.0
DATA gathc<>+40(SB)/8, $5.0
DATA gathc<>+48(SB)/8, $6.0
DATA gathc<>+56(SB)/8, $7.0
DATA gathc<>+64(SB)/8, $8.0
DATA gathc<>+72(SB)/8, $2.0 // descWidth/2
DATA gathc<>+80(SB)/8, $0.5
GLOBL gathc<>(SB), RODATA|NOPTR, $88

// GRAD loads the group's four neighbours and stores gx = float64(right −
// left) and gy = float64(below − above), the difference of the two
// float32s with the right (below) one as the first source, as Go's
// subtraction takes it, then widened.
#define GRAD \
	VMOVUPS.Z   -4(SI)(DX*1), K1, Z0; \
	VMOVUPS.Z   4(SI)(DX*1), K1, Z1; \
	VMOVUPS.Z   (SI), K1, Z2; \
	VMOVUPS.Z   (SI)(DX*2), K1, Z3; \
	VSUBPS      Z0, Z1, Z1; \
	VSUBPS      Z2, Z3, Z3; \
	VCVTPS2PD   Y1, Z1; \
	VCVTPS2PD   Y3, Z3; \
	VMOVUPD     Z1, K1, gradChunk_gx(R9); \
	VMOVUPD     Z3, K1, gradChunk_gy(R9)

// func orientGather8(c *gradChunk, n int, pix []float32, gw, dx, dy int, inv float64)
//
// For j < n, lane c.n+j: gx, gy as GRAD, and arg = (dx'² + dy²)·inv with
// dx' = dx+j, Go's float64(dx'·dx'+dy·dy)·inv: the squares and their sum
// are exact in float64 while |dx'| and |dy| are at most 2^26.
//
// Z16 dx' lanes, Z17 dy², Z18 inv, Z20 eight.
TEXT ·orientGather8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), R9
	MOVQ n+8(FP), CX
	MOVQ pix_base+16(FP), SI
	MOVQ gw+40(FP), DX
	SHLQ $2, DX
	MOVQ gradChunk_n(R9), AX
	LEAQ (R9)(AX*8), R9

	MOVQ         dx+48(FP), AX
	VCVTSI2SDQ   AX, X0, X0
	VBROADCASTSD X0, Z16
	VADDPD       gathc<>+0(SB), Z16, Z16
	MOVQ         dy+56(FP), AX
	IMULQ        AX, AX
	VCVTSI2SDQ   AX, X0, X0
	VBROADCASTSD X0, Z17
	VBROADCASTSD inv+64(FP), Z18
	VBROADCASTSD gathc<>+64(SB), Z20

oloop:
	TESTQ CX, CX
	JLE   odone
	LANEMASK
	GRAD
	VMULPD  Z16, Z16, Z4
	VADDPD  Z17, Z4, Z4
	VMULPD  Z18, Z4, Z4
	VMOVUPD Z4, K1, gradChunk_arg(R9)
	VADDPD  Z20, Z16, Z16
	ADDQ    $32, SI
	ADDQ    $64, R9
	SUBQ    $8, CX
	JMP     oloop

odone:
	VZEROUPPER
	RET

// func descGather8(c *descChunk, n int, pix []float32, gw int, r *descRun)
//
// For j < n, lane c.n+j: gx, gy as GRAD; with dx = r.dx0+j, rx = (cosT·dx
// + sdy) / histWidth and ry = (−sinT·dx + cdy) / histWidth, each product
// rounded before its add and each quotient a VDIVPD; arg = (rx·rx +
// ry·ry)·invGauss; bx = (rx + 2) − 0.5 and by = (ry + 2) − 0.5.
//
// Z16 dx lanes, Z17 cosT, Z18 sdy, Z19 −sinT, Z20 cdy, Z21 histWidth,
// Z22 invGauss, Z23 descWidth/2, Z24 0.5, Z25 eight.
TEXT ·descGather8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), R9
	MOVQ n+8(FP), CX
	MOVQ pix_base+16(FP), SI
	MOVQ gw+40(FP), DX
	MOVQ r+48(FP), R10
	SHLQ $2, DX
	MOVQ gradChunk_n(R9), AX
	LEAQ (R9)(AX*8), R9

	MOVQ         descRun_dx0(R10), AX
	VCVTSI2SDQ   AX, X0, X0
	VBROADCASTSD X0, Z16
	VADDPD       gathc<>+0(SB), Z16, Z16
	VBROADCASTSD descRun_cosT(R10), Z17
	VBROADCASTSD descRun_sdy(R10), Z18
	VBROADCASTSD descRun_negSinT(R10), Z19
	VBROADCASTSD descRun_cdy(R10), Z20
	VBROADCASTSD descRun_histWidth(R10), Z21
	VBROADCASTSD descRun_invGauss(R10), Z22
	VBROADCASTSD gathc<>+72(SB), Z23
	VBROADCASTSD gathc<>+80(SB), Z24
	VBROADCASTSD gathc<>+64(SB), Z25

dloop:
	TESTQ CX, CX
	JLE   ddone
	LANEMASK
	GRAD
	VMULPD  Z17, Z16, Z4
	VADDPD  Z18, Z4, Z4
	VDIVPD  Z21, Z4, Z4 // rx
	VMULPD  Z19, Z16, Z5
	VADDPD  Z20, Z5, Z5
	VDIVPD  Z21, Z5, Z5 // ry
	VMULPD  Z4, Z4, Z6
	VMULPD  Z5, Z5, Z7
	VADDPD  Z7, Z6, Z6
	VMULPD  Z22, Z6, Z6
	VMOVUPD Z6, K1, gradChunk_arg(R9)
	VADDPD  Z23, Z4, Z4
	VSUBPD  Z24, Z4, Z4
	VMOVUPD Z4, K1, descChunk_bx(R9)
	VADDPD  Z23, Z5, Z5
	VSUBPD  Z24, Z5, Z5
	VMOVUPD Z5, K1, descChunk_by(R9)
	VADDPD  Z25, Z16, Z16
	ADDQ    $32, SI
	ADDQ    $64, R9
	SUBQ    $8, CX
	JMP     dloop

ddone:
	VZEROUPPER
	RET

// func orientBins8(c *orientChunk, special *[evalChunk / 8]uint8)
//
// For each of c's c.n evaluated pixels, what c.prepPixel(i) writes: mag =
// sqrt(gx·gx + gy·gy) (two multiplies, an add and a square root, as Go
// computes it), t = ((ang + π) / 2π)·36, bin = min(⌊t⌋, 35) by VRNDSCALEPD
// round-down, VCVTTPD2DQ and VPMINSD, sign-extended to int, and wm = w·mag.
// Bit j of special[g] flags lane 8g+j, whose bin and wm are unspecified,
// when t is outside [0, 36] (NaN included) or wm is not finite; in [0, 36]
// the int32 conversion is exact.
//
// R9 c at the group's lane, R8 special, CX lanes left. Z16 π, Z17 2π,
// Z18 36, Z19 +0, Z21 |·| mask, Z22 +Inf, Y14 35.
TEXT ·orientBins8(SB), NOSPLIT, $0-16
	MOVQ c+0(FP), R9
	MOVQ gradChunk_n(R9), CX
	MOVQ special+8(FP), R8

	VBROADCASTSD binc<>+0(SB), Z16
	VBROADCASTSD descc<>+0(SB), Z17
	VBROADCASTSD binc<>+8(SB), Z18
	VPXORQ       Z19, Z19, Z19
	VBROADCASTSD descc<>+32(SB), Z21
	VBROADCASTSD descc<>+40(SB), Z22
	VPBROADCASTD binc<>+16(SB), Y14

bloop:
	TESTQ CX, CX
	JLE   bdone
	LANEMASK
	VMOVUPD.Z gradChunk_gx(R9), K1, Z0
	VMOVUPD.Z gradChunk_gy(R9), K1, Z1
	VMOVUPD.Z gradChunk_ang(R9), K1, Z2
	VMOVUPD.Z gradChunk_w(R9), K1, Z3

	VMULPD  Z0, Z0, Z6
	VMULPD  Z1, Z1, Z7
	VADDPD  Z7, Z6, Z6
	VSQRTPD Z6, Z6
	VMULPD  Z6, Z3, Z6 // wm = w·mag
	VADDPD  Z16, Z2, Z2
	VDIVPD  Z17, Z2, Z2
	VMULPD  Z18, Z2, Z2 // t

	KMOVW  K1, K2
	VCMPPD $0x1d, Z19, Z2, K2, K2 // GE_OQ: t >= 0
	VCMPPD $0x12, Z18, Z2, K2, K2 // LE_OQ: t <= 36
	FINITE(Z6)
	KANDNW K1, K2, K3
	KMOVW  K3, AX
	MOVB   AX, (R8)

	VRNDSCALEPD $0x09, Z2, Z2
	VCVTTPD2DQ  Z2, Y2
	VPMINSD     Y14, Y2, Y2
	VPMOVSXDQ   Y2, Z2
	VMOVDQU64   Z2, K1, orientChunk_bin(R9)
	VMOVUPD     Z6, K1, orientChunk_wm(R9)

	ADDQ $64, R9
	INCQ R8
	SUBQ $8, CX
	JMP  bloop

bdone:
	VZEROUPPER
	RET

DATA binc<>+0(SB)/8, $0x400921fb54442d18 // π
DATA binc<>+8(SB)/8, $36.0                // orientBins
DATA binc<>+16(SB)/4, $35                 // orientBins − 1 (int32)
GLOBL binc<>(SB), RODATA|NOPTR, $20
