// PHSTEP is one k step of the AVX512-FP16 binary16 tile, shared by hkernPH
// (hgemm_amd64.s) and hgemmTop2Tile (hfused_amd64.s): Z8 = the 64-byte row
// at (SI) — 32 binary16 lanes of the packed panel — then, for r = 0..7,
// Z(16+r) = Z8 · the binary16 at (base_r)(AX*1) broadcast {1to32}, and
// Z(r) = Z(r) + Z(16+r), each rounded once to binary16. base_r is R8, R9,
// R10, R11, R12, DX, BX, DI. src1 is the panel in the multiply and the
// accumulator in the add.
//
// Go 1.24's assembler has no *PH arithmetic mnemonics, so VMULPH/VADDPH are
// BYTE-encoded (EVEX map 5: 0x59 mul, 0x58 add); binutils 2.40 assembles
// the Intel-syntax lines below to exactly these bytes, in this order (and
// objdump -d prints them back from a linked test binary). The registers
// above are fixed by those bytes.
//
//	vmulph zmm16,zmm8,WORD BCST [r8+rax*1]
//	vaddph zmm0,zmm0,zmm16
//	vmulph zmm17,zmm8,WORD BCST [r9+rax*1]
//	vaddph zmm1,zmm1,zmm17
//	vmulph zmm18,zmm8,WORD BCST [r10+rax*1]
//	vaddph zmm2,zmm2,zmm18
//	vmulph zmm19,zmm8,WORD BCST [r11+rax*1]
//	vaddph zmm3,zmm3,zmm19
//	vmulph zmm20,zmm8,WORD BCST [r12+rax*1]
//	vaddph zmm4,zmm4,zmm20
//	vmulph zmm21,zmm8,WORD BCST [rdx+rax*1]
//	vaddph zmm5,zmm5,zmm21
//	vmulph zmm22,zmm8,WORD BCST [rbx+rax*1]
//	vaddph zmm6,zmm6,zmm22
//	vmulph zmm23,zmm8,WORD BCST [rdi+rax*1]
//	vaddph zmm7,zmm7,zmm23
#define PHSTEP \
	VMOVDQU16 (SI), Z8; \
	BYTE $0x62; BYTE $0xc5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x04; BYTE $0x00; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x7c; BYTE $0x48; BYTE $0x58; BYTE $0xc0; \
	BYTE $0x62; BYTE $0xc5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x0c; BYTE $0x01; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x74; BYTE $0x48; BYTE $0x58; BYTE $0xc9; \
	BYTE $0x62; BYTE $0xc5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x14; BYTE $0x02; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x6c; BYTE $0x48; BYTE $0x58; BYTE $0xd2; \
	BYTE $0x62; BYTE $0xc5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x1c; BYTE $0x03; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x64; BYTE $0x48; BYTE $0x58; BYTE $0xdb; \
	BYTE $0x62; BYTE $0xc5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x24; BYTE $0x04; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x5c; BYTE $0x48; BYTE $0x58; BYTE $0xe4; \
	BYTE $0x62; BYTE $0xe5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x2c; BYTE $0x02; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x54; BYTE $0x48; BYTE $0x58; BYTE $0xed; \
	BYTE $0x62; BYTE $0xe5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x34; BYTE $0x03; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x4c; BYTE $0x48; BYTE $0x58; BYTE $0xf6; \
	BYTE $0x62; BYTE $0xe5; BYTE $0x3c; BYTE $0x58; BYTE $0x59; BYTE $0x3c; BYTE $0x07; \
	BYTE $0x62; BYTE $0xb5; BYTE $0x44; BYTE $0x48; BYTE $0x58; BYTE $0xff
