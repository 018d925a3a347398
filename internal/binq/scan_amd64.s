// AVX-512 VPOPCNTQ Hamming scan. See scan_amd64.go for the dispatch and
// scanScalar in binq.go for the value it must equal: integer minima and
// sums, so any evaluation order gives the same bits.

#include "textflag.h"

// DIST8 leaves in t the Hamming distances from probe p (broadcast to every
// 128-bit lane) to the eight codes in Z8 (codes 0..3) and Z9 (codes 4..7),
// clobbering u and v. A code is a lo, hi qword pair, so after the XORs and
// VPOPCNTQs each 128-bit lane of t holds code j's two counts and u's the
// counts of code 4+j; the unpacks pair them up across the loads and VPADDQ
// sums them, leaving the distances of codes 0,4,1,5,2,6,3,7 in lanes 0..7.
#define DIST8(p, t, u, v) \
	VPXORQ      Z8, p, t; \
	VPXORQ      Z9, p, u; \
	VPOPCNTQ    t, t; \
	VPOPCNTQ    u, u; \
	VPUNPCKLQDQ u, t, v; \
	VPUNPCKHQDQ u, t, t; \
	VPADDQ      v, t, t

// HMIN adds the minimum of the eight qword lanes of z (y and x are the same
// register's YMM and XMM names) to AX, clobbering Z12 and R11.
#define HMIN(z, y, x) \
	VEXTRACTI64X4 $1, z, Y12; \
	VPMINUQ       Y12, y, y; \
	VEXTRACTI128  $1, y, X12; \
	VPMINUQ       X12, x, x; \
	VPSHUFD       $0x4e, x, X12; \
	VPMINUQ       X12, x, x; \
	VMOVQ         x, R11; \
	ADDQ          R11, AX

// func scanVPOPCNTQ(block, probes []Code) uint32
//
// Returns Σ_p min_j Hamming(probes[p], block[j]) for len(block) = m ≥ 1 and
// any probe count. A step compares eight codes (two ZMM loads) against a
// probe with DIST8 and folds the distances into the probe's running minimum
// with VPMINUQ. Four probes share each step's loads (Z0..Z3 the probes,
// Z4..Z7 their minima); a one-probe loop takes the remaining count mod 4.
// Minima start at all-ones, above any distance (≤ 128), and after the last
// step HMIN folds each into the sum.
//
// A last step of r = m mod 8 codes uses masked loads, which neither read
// nor fault on disabled elements. Its 2r qwords are the mask 2^(2r) − 1
// over the sixteen of both loads: K1 takes it whole (a qword op reads only
// the low eight bits), K2 its high byte. Its VPMINUQ merges only the lanes
// that hold a real code — lane 2j is code j, lane 2j+1 code 4+j — so K3 is
// the even bits of K1's byte plus the even bits of K2's shifted up one.
//
// SI block, DI next probe, DX probes left, AX sum, CX full steps, R8 = r,
// R9 code cursor, R10 steps left.
TEXT ·scanVPOPCNTQ(SB), NOSPLIT, $0-52
	MOVQ block_base+0(FP), SI
	MOVQ block_len+8(FP), BX
	MOVQ probes_base+24(FP), DI
	MOVQ probes_len+32(FP), DX
	XORQ AX, AX

	MOVQ  BX, R8
	ANDQ  $7, R8
	MOVQ  R8, CX
	SHLQ  $1, CX
	MOVQ  $1, R11
	SHLQ  CX, R11
	DECQ  R11 // the tail's 2r qwords over both loads
	MOVQ  R11, R12
	SHRQ  $8, R12
	KMOVW R11, K1
	KMOVW R12, K2
	ANDQ  $0x55, R11
	ANDQ  $0x55, R12
	SHLQ  $1, R12
	ORQ   R12, R11
	KMOVW R11, K3
	MOVQ  BX, CX
	SHRQ  $3, CX

	VPTERNLOGQ $0xff, Z31, Z31, Z31 // all-ones: the minima's start

quad:
	CMPQ DX, $4
	JLT  single
	VBROADCASTI32X4 (DI), Z0
	VBROADCASTI32X4 16(DI), Z1
	VBROADCASTI32X4 32(DI), Z2
	VBROADCASTI32X4 48(DI), Z3
	VMOVDQA64       Z31, Z4
	VMOVDQA64       Z31, Z5
	VMOVDQA64       Z31, Z6
	VMOVDQA64       Z31, Z7
	MOVQ            SI, R9
	MOVQ            CX, R10
	TESTQ           R10, R10
	JEQ             quadTail

quadStep:
	VMOVDQU64 (R9), Z8
	VMOVDQU64 64(R9), Z9
	DIST8(Z0, Z10, Z11, Z12)
	DIST8(Z1, Z13, Z14, Z15)
	DIST8(Z2, Z16, Z17, Z18)
	DIST8(Z3, Z19, Z20, Z21)
	VPMINUQ   Z10, Z4, Z4
	VPMINUQ   Z13, Z5, Z5
	VPMINUQ   Z16, Z6, Z6
	VPMINUQ   Z19, Z7, Z7
	ADDQ      $128, R9
	DECQ      R10
	JNE       quadStep

quadTail:
	TESTQ       R8, R8
	JEQ         quadFold
	VMOVDQU64.Z (R9), K1, Z8
	VMOVDQU64.Z 64(R9), K2, Z9
	DIST8(Z0, Z10, Z11, Z12)
	DIST8(Z1, Z13, Z14, Z15)
	DIST8(Z2, Z16, Z17, Z18)
	DIST8(Z3, Z19, Z20, Z21)
	VPMINUQ     Z10, Z4, K3, Z4
	VPMINUQ     Z13, Z5, K3, Z5
	VPMINUQ     Z16, Z6, K3, Z6
	VPMINUQ     Z19, Z7, K3, Z7

quadFold:
	HMIN(Z4, Y4, X4)
	HMIN(Z5, Y5, X5)
	HMIN(Z6, Y6, X6)
	HMIN(Z7, Y7, X7)
	ADDQ $64, DI
	SUBQ $4, DX
	JMP  quad

single:
	TESTQ           DX, DX
	JEQ             done
	VBROADCASTI32X4 (DI), Z0
	VMOVDQA64       Z31, Z4
	MOVQ            SI, R9
	MOVQ            CX, R10
	TESTQ           R10, R10
	JEQ             singleTail

singleStep:
	VMOVDQU64 (R9), Z8
	VMOVDQU64 64(R9), Z9
	DIST8(Z0, Z10, Z11, Z12)
	VPMINUQ   Z10, Z4, Z4
	ADDQ      $128, R9
	DECQ      R10
	JNE       singleStep

singleTail:
	TESTQ       R8, R8
	JEQ         singleFold
	VMOVDQU64.Z (R9), K1, Z8
	VMOVDQU64.Z 64(R9), K2, Z9
	DIST8(Z0, Z10, Z11, Z12)
	VPMINUQ     Z10, Z4, K3, Z4

singleFold:
	HMIN(Z4, Y4, X4)
	ADDQ $16, DI
	DECQ DX
	JMP  single

done:
	MOVL AX, ret+48(FP)
	VZEROUPPER
	RET
