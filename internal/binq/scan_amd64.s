// AVX-512 VPOPCNTQ Hamming scan. See scan_amd64.go for the dispatch and
// scanScalar in binq.go for the value it must equal: integer minima and
// sums, so any evaluation order gives the same bits.

#include "textflag.h"

// LANES folds the code broadcast in Z24 (lo words) and Z25 (hi words) into
// the running minima mn of the eight probes whose lo and hi words are in lo
// and hi, clobbering Z26 and Z27. Every lane is one probe, so nothing
// crosses lanes.
#define LANES(lo, hi, mn) \
	VPXORQ   Z24, lo, Z26; \
	VPXORQ   Z25, hi, Z27; \
	VPOPCNTQ Z26, Z26; \
	VPOPCNTQ Z27, Z27; \
	VPADDQ   Z27, Z26, Z26; \
	VPMINUQ  Z26, mn, mn

// func scanLanes(block []Code, groups []laneGroup) uint32
//
// Returns Σ_p min_j Hamming(probe p, block[j]) for len(block) = m ≥ 1,
// where the probes are transposed eight to a group (laneGroup: lo words,
// hi words, start of the minima). The kernel walks the block once per
// chunk of eight groups (64 probes: Z0..Z7 lo, Z8..Z15 hi, Z16..Z23 the
// minima), broadcasting each code's two words and folding it into every
// probe's minimum with LANES; a one-group loop takes the groups left over.
// A chunk's minima are added into Z30, whose eight lanes are summed once
// at the end. A lane past the probe count starts its minimum at 0, so it
// adds nothing.
//
// SI block, BX m, DI next group, DX groups left, R9 code cursor, R10 codes
// left.
TEXT ·scanLanes(SB), NOSPLIT, $0-52
	MOVQ   block_base+0(FP), SI
	MOVQ   block_len+8(FP), BX
	MOVQ   groups_base+24(FP), DI
	MOVQ   groups_len+32(FP), DX
	VPXORQ Z30, Z30, Z30

chunk:
	CMPQ      DX, $8
	JLT       group
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z8
	VMOVDQU64 128(DI), Z16
	VMOVDQU64 192(DI), Z1
	VMOVDQU64 256(DI), Z9
	VMOVDQU64 320(DI), Z17
	VMOVDQU64 384(DI), Z2
	VMOVDQU64 448(DI), Z10
	VMOVDQU64 512(DI), Z18
	VMOVDQU64 576(DI), Z3
	VMOVDQU64 640(DI), Z11
	VMOVDQU64 704(DI), Z19
	VMOVDQU64 768(DI), Z4
	VMOVDQU64 832(DI), Z12
	VMOVDQU64 896(DI), Z20
	VMOVDQU64 960(DI), Z5
	VMOVDQU64 1024(DI), Z13
	VMOVDQU64 1088(DI), Z21
	VMOVDQU64 1152(DI), Z6
	VMOVDQU64 1216(DI), Z14
	VMOVDQU64 1280(DI), Z22
	VMOVDQU64 1344(DI), Z7
	VMOVDQU64 1408(DI), Z15
	VMOVDQU64 1472(DI), Z23
	MOVQ      SI, R9
	MOVQ      BX, R10

chunkCode:
	VPBROADCASTQ (R9), Z24
	VPBROADCASTQ 8(R9), Z25
	LANES(Z0, Z8, Z16)
	LANES(Z1, Z9, Z17)
	LANES(Z2, Z10, Z18)
	LANES(Z3, Z11, Z19)
	LANES(Z4, Z12, Z20)
	LANES(Z5, Z13, Z21)
	LANES(Z6, Z14, Z22)
	LANES(Z7, Z15, Z23)
	ADDQ         $16, R9
	DECQ         R10
	JNE          chunkCode
	VPADDQ       Z16, Z30, Z30
	VPADDQ       Z17, Z30, Z30
	VPADDQ       Z18, Z30, Z30
	VPADDQ       Z19, Z30, Z30
	VPADDQ       Z20, Z30, Z30
	VPADDQ       Z21, Z30, Z30
	VPADDQ       Z22, Z30, Z30
	VPADDQ       Z23, Z30, Z30
	ADDQ         $1536, DI
	SUBQ         $8, DX
	JMP          chunk

group:
	TESTQ     DX, DX
	JEQ       done
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z8
	VMOVDQU64 128(DI), Z16
	MOVQ      SI, R9
	MOVQ      BX, R10

groupCode:
	VPBROADCASTQ (R9), Z24
	VPBROADCASTQ 8(R9), Z25
	LANES(Z0, Z8, Z16)
	ADDQ         $16, R9
	DECQ         R10
	JNE          groupCode
	VPADDQ       Z16, Z30, Z30
	ADDQ         $192, DI
	DECQ         DX
	JMP          group

done:
	VEXTRACTI64X4 $1, Z30, Y1
	VPADDQ        Y1, Y30, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPSHUFD       $0x4e, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, AX
	MOVL          AX, ret+48(FP)
	VZEROUPPER
	RET
