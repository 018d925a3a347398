// AVX-512 separable Gaussian blur taps (blurArena's native tier). See
// conv_amd64.go for the dispatch and blurTiered in pyramid.go for the chain
// every lane must equal: one product per tap, rounded, then added in
// ascending tap order. VMULPS and VADDPS round separately; an FMA would
// round once and change the bits. The kernel is finite and positive, so a
// product's NaN can only be the pixel's, and the accumulator is always the
// add's first source, as in the scalar s += k·v.

#include "textflag.h"

// TAP4 multiplies the four 16-lane blocks at R11 by the tap at R10 and
// adds each product to its block's accumulator, Z0..Z3. TAP1 does the same
// for the one block at R11 and Z0.
#define TAP4 \
	VBROADCASTSS (R10), Z4; \
	VMULPS       (R11), Z4, Z5; \
	VMULPS       64(R11), Z4, Z6; \
	VMULPS       128(R11), Z4, Z7; \
	VMULPS       192(R11), Z4, Z8; \
	VADDPS       Z5, Z0, Z0; \
	VADDPS       Z6, Z1, Z1; \
	VADDPS       Z7, Z2, Z2; \
	VADDPS       Z8, Z3, Z3

#define TAP1 \
	VBROADCASTSS (R10), Z4; \
	VMULPS       (R11), Z4, Z5; \
	VADDPS       Z5, Z0, Z0

// func convH(dst, src, k []float32)
//
// dst[x] = ((0 + k[0]·src[x]) + k[1]·src[x+1]) + … + k[t−1]·src[x+t−1] for
// every x < len(dst), t = len(k): the horizontal pass over one row, where
// src, the row with its edge pixels repeated, starts radius pixels left of
// dst's first pixel and holds len(dst)+t−1 of them. len(dst) is a
// multiple of 16. Four blocks go through the taps together, each its own
// chain, so the adds overlap; a one-block loop takes the rest. Every chain
// starts at +0, as the scalar loop's var s float32 does, so a product of
// −0 at the first tap sums to +0.
//
// DI dst, SI src at the block, CX blocks left, R8 k, R9 end of k, R10 tap,
// R11 src at the tap.
TEXT ·convH(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ k_base+48(FP), R8
	MOVQ k_len+56(FP), R9
	SHRQ $4, CX
	LEAQ (R8)(R9*4), R9

h4:
	CMPQ   CX, $4
	JLT    h1
	VXORPS Z0, Z0, Z0
	VXORPS Z1, Z1, Z1
	VXORPS Z2, Z2, Z2
	VXORPS Z3, Z3, Z3
	MOVQ   R8, R10
	MOVQ   SI, R11

h4tap:
	TAP4
	ADDQ $4, R10
	ADDQ $4, R11
	CMPQ R10, R9
	JNE  h4tap

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $4, CX
	JMP     h4

h1:
	TESTQ  CX, CX
	JZ     done
	VXORPS Z0, Z0, Z0
	MOVQ   R8, R10
	MOVQ   SI, R11

h1tap:
	TAP1
	ADDQ $4, R10
	ADDQ $4, R11
	CMPQ R10, R9
	JNE  h1tap

	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JMP     h1

done:
	VZEROUPPER
	RET

// func convV(dst, src []float32, stride int, k []float32, dog, in []float32)
//
// dst[x] = ((k[0]·src[x] + k[1]·src[stride+x]) + …) + k[t−1]·src[(t−1)·stride+x]
// for every x < len(dst), t = len(k): the vertical pass over one output
// row, whose t source rows lie stride floats apart from src on. len(dst)
// is a multiple of 16. A block stays in its register across all taps and
// is stored once. The chain starts at the first product itself, as the
// scalar dst[x] = k[0]·v does, so a column of −0 products stays −0. Four
// blocks go through the taps together, a one-block loop takes the rest.
// A non-empty dog then receives dst[x] − in[x] for the same blocks, the
// finished sum as the subtraction's first source, as in Go's out − im;
// dog may be in itself, since each block is read before it is written.
//
// DI dst, SI src at the block, DX stride in bytes, CX blocks left, R8 k,
// R9 end of k, R10 tap, R11 src at the tap's row, R12 dog, R13 in, R14
// len(dog).
TEXT ·convV(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), DX
	MOVQ k_base+56(FP), R8
	MOVQ k_len+64(FP), R9
	MOVQ dog_base+80(FP), R12
	MOVQ dog_len+88(FP), R14
	MOVQ in_base+104(FP), R13
	SHLQ $2, DX
	SHRQ $4, CX
	LEAQ (R8)(R9*4), R9

v4:
	CMPQ         CX, $4
	JLT          v1
	VBROADCASTSS (R8), Z4
	VMULPS       (SI), Z4, Z0
	VMULPS       64(SI), Z4, Z1
	VMULPS       128(SI), Z4, Z2
	VMULPS       192(SI), Z4, Z3
	LEAQ         4(R8), R10
	MOVQ         SI, R11

v4tap:
	CMPQ R10, R9
	JEQ  v4store
	ADDQ DX, R11
	TAP4
	ADDQ $4, R10
	JMP  v4tap

v4store:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	TESTQ   R14, R14
	JZ      v4next
	VSUBPS  (R13), Z0, Z0
	VSUBPS  64(R13), Z1, Z1
	VSUBPS  128(R13), Z2, Z2
	VSUBPS  192(R13), Z3, Z3
	VMOVUPS Z0, (R12)
	VMOVUPS Z1, 64(R12)
	VMOVUPS Z2, 128(R12)
	VMOVUPS Z3, 192(R12)
	ADDQ    $256, R12
	ADDQ    $256, R13

v4next:
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $4, CX
	JMP     v4

v1:
	TESTQ        CX, CX
	JZ           vdone
	VBROADCASTSS (R8), Z4
	VMULPS       (SI), Z4, Z0
	LEAQ         4(R8), R10
	MOVQ         SI, R11

v1tap:
	CMPQ R10, R9
	JEQ  v1store
	ADDQ DX, R11
	TAP1
	ADDQ $4, R10
	JMP  v1tap

v1store:
	VMOVUPS Z0, (DI)
	TESTQ   R14, R14
	JZ      v1next
	VSUBPS  (R13), Z0, Z0
	VMOVUPS Z0, (R12)
	ADDQ    $64, R12
	ADDQ    $64, R13

v1next:
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JMP     v1

vdone:
	VZEROUPPER
	RET
