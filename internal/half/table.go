package half

// Conversion tables for the fast binary16 paths.
//
// Decode (half → float32) is a straight 65,536-entry float32 table: 256 KiB,
// small enough to live in L2 next to the operand panels it decodes, and the
// only way to widen a half in one data-dependent load with zero branches.
// The table is filled at init from float32Scalar, the branchy reference
// decode, and TestDecodeTableExhaustive re-verifies every entry against it.
//
// Encode (float32 → half) cannot table the full 32-bit input, but all of
// its branch structure depends only on the 9-bit sign+exponent field:
//
//   - encShift[i] is how far the 24-bit explicit significand (frac|0x800000)
//     shifts right to land in the half's significand field;
//   - encBase[i] is the sign and exponent skeleton the shifted significand
//     is ADDED to (not or'ed): for normal results the explicit leading bit
//     arrives as +0x400 and carries into the exponent field, and a
//     round-up out of a full significand bumps the exponent the same way,
//     so subnormal→normal and normal→Inf promotion need no branches.
//
// Exponent classes (e = biased float32 exponent, i = sign<<8 | e):
//
//	e ≥ 143          overflow: base = ±Inf, shift 25 discards everything
//	                 (a 24-bit significand can never carry out of bit 24).
//	113 ≤ e ≤ 142    normal halves: shift 13, base exponent e-113 so the
//	                 explicit bit's +0x400 lands the true exponent e-112.
//	102 ≤ e ≤ 112    subnormal halves: shift 126-e, zero base exponent.
//	e ≤ 101          rounds to signed zero even as a subnormal: shift 25.
//
// e = 255 (Inf/NaN) never reaches the tables — FromFloat32 branches first.
var (
	decTable [1 << 16]float32
	encBase  [512]uint16
	encShift [512]uint8
)

func init() {
	for i := range decTable {
		decTable[i] = float32Scalar(Float16{uint16(i)})
	}
	for i := range encBase {
		sign := uint16(i>>8) << 15
		e := i & 0xFF
		switch {
		case e >= 143:
			encBase[i] = sign | 0x7C00
			encShift[i] = 25
		case e >= 113:
			encBase[i] = sign | uint16(e-113)<<10
			encShift[i] = 13
		case e >= 102:
			encBase[i] = sign
			encShift[i] = uint8(126 - e)
		default:
			encBase[i] = sign
			encShift[i] = 25
		}
	}
}

// AppendTies appends to dst the float32 bit patterns at which
// round-to-nearest-even decides, at every float32 exponent that reaches
// the encoder (1…254) and both signs: for four significands at each, the
// float32 exactly halfway between two adjacent binary16 results and the
// patterns one ULP either side of it. The shift is the one the encode
// tables apply at that exponent, so the ties land on the normal,
// subnormal, zero-underflow and overflow classes alike. It is the input
// set of TestEncodeTieCasesEveryExponent, and conversion kernels outside
// this package hold their tiers to FromFloat32 on it.
func AppendTies(dst []uint32) []uint32 {
	for exp := uint32(1); exp <= 254; exp++ {
		for _, sign := range []uint32{0, 0x80000000} {
			shift := uint32(encShift[(sign|exp<<23)>>23])
			if shift >= 24 {
				shift = 23 // everything is discarded; probe the top bit
			}
			half := uint32(1) << (shift - 1)
			for _, frac := range []uint32{0, 1 << shift, 2 << shift, 0x7FFFFF &^ (1<<shift - 1)} {
				base := sign | exp<<23 | frac&0x7FFFFF
				dst = append(dst, base|half, base|half-1, base|half+1)
			}
		}
	}
	return dst
}
