// AVX-512 code encoder (Thresholds.Encode's native tier). See encode128's
// declaration and Thresholds.Encode for the dispatch, and EncodePortable
// in binq.go for the value it must equal: bit i is set iff col[i] > t[i].

#include "textflag.h"

// CMP4 compares the four 16-lane quarters of one 64-dimension half of the
// column at SI, from byte off on, with thresholds z0..z3 and stores the 64
// result bits as one Code word at woff(DI), clobbering AX and DX. VCMPPS
// LT_OQ computes t < v, which is Go's v > t: false when either side is
// NaN, and false on equal values (±0 included). KMOVW moves each quarter's
// sixteen bits, lane i to bit i, into place.
#define CMP4(off, z0, z1, z2, z3, woff) \
	VCMPPS $0x11, off(SI), z0, K1; \
	VCMPPS $0x11, off+64(SI), z1, K2; \
	VCMPPS $0x11, off+128(SI), z2, K3; \
	VCMPPS $0x11, off+192(SI), z3, K4; \
	KMOVW  K1, AX; \
	KMOVW  K2, DX; \
	SHLQ   $16, DX; \
	ORQ    DX, AX; \
	KMOVW  K3, DX; \
	SHLQ   $32, DX; \
	ORQ    DX, AX; \
	KMOVW  K4, DX; \
	SHLQ   $48, DX; \
	ORQ    DX, AX; \
	MOVQ   AX, woff(DI)

// func encode128(t *float32, col *float32, stride, cols int, dst *Code)
//
// Encodes cols ≥ 1 columns of 128 float32s, stride floats apart from col
// on, against the 128 thresholds at t into the cols Codes at dst. The
// thresholds stay in Z0..Z7 across the columns; each column is eight
// compares, two words.
//
// SI column, BX stride in bytes, CX columns left, DI code.
TEXT ·encode128(SB), NOSPLIT, $0-40
	MOVQ    t+0(FP), SI
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	VMOVUPS 128(SI), Z2
	VMOVUPS 192(SI), Z3
	VMOVUPS 256(SI), Z4
	VMOVUPS 320(SI), Z5
	VMOVUPS 384(SI), Z6
	VMOVUPS 448(SI), Z7
	MOVQ    col+8(FP), SI
	MOVQ    stride+16(FP), BX
	SHLQ    $2, BX
	MOVQ    cols+24(FP), CX
	MOVQ    dst+32(FP), DI

loop:
	CMP4(0, Z0, Z1, Z2, Z3, 0)
	CMP4(256, Z4, Z5, Z6, Z7, 8)
	ADDQ $16, DI
	ADDQ BX, SI
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET
