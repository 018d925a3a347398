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
