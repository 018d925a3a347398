// Package half implements IEEE 754 binary16 (half-precision) floating point.
//
// The texture-identification engine stores reference feature matrices in
// half precision to double the effective cache capacity and exploit the
// simulated GPU's FP16 arithmetic paths. The paper's Table 2 studies how a
// scale factor applied before the FP32→FP16 conversion trades overflow
// against compression error; this package provides the exact conversion and
// arithmetic semantics needed to reproduce that study, including
// round-to-nearest-even and overflow to ±Inf (pre-Volta HGEMM accumulates in
// FP16, so overflow is observable in the distance matrix).
package half

import "math"

// Float16 is an IEEE 754 binary16 value stored in its raw bit pattern:
// 1 sign bit, 5 exponent bits (bias 15), 10 fraction bits. The pattern is
// unexported, so outside this package a Float16 can be made only by
// FromFloat32 (which rounds) or FromBits (the serialization seam), and Go
// offers no arithmetic operator on it: a raw conversion or a bit-pattern
// sum does not compile. Its memory layout is exactly a uint16's, which the
// assembly kernels rely on.
type Float16 struct{ bits uint16 }

// Max is the largest finite value representable in binary16, as a float32.
const Max float32 = 65504

// FromBits reinterprets a raw binary16 bit pattern as a Float16. It is
// the only way to materialize a Float16 from integer bits outside this
// package (serialization round-trips); converting values must go through
// FromFloat32, which rounds.
func FromBits(b uint16) Float16 { return Float16{b} }

// Bits returns the raw binary16 bit pattern, for serialization.
func (f Float16) Bits() uint16 { return f.bits }

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even,
// the rounding mode used by CUDA's __float2half_rn and by cuBLAS HGEMM.
// Values whose magnitude exceeds 65504 after rounding become ±Inf.
//
// The conversion is table-driven (see table.go): the 9-bit sign+exponent
// field indexes base/shift tables and the RNE increment is a branch-free
// carry, so the only branch left is the Inf/NaN escape.
// TestEncodeAgainstScalar pins it bit-for-bit to fromFloat32Scalar.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	if b&0x7F800000 == 0x7F800000 { // Inf or NaN
		sign := uint16(b>>16) & 0x8000
		if b&0x7FFFFF != 0 {
			// NaN: keep a quiet NaN with some payload.
			return Float16{sign | 0x7E00}
		}
		return Float16{sign | 0x7C00}
	}
	i := b >> 23 // 9 bits: sign + biased float32 exponent
	sig := b&0x7FFFFF | 0x800000
	shift := encShift[i]
	h := encBase[i] + uint16(sig>>shift)
	// Branch-free round-to-nearest-even: the discarded bits plus the
	// result's own parity carry a 1 out of bit shift-1 exactly when RNE
	// rounds up (rem > half, or rem == half with an odd significand).
	rem := sig & (uint32(1)<<shift - 1)
	h += uint16((rem + uint32(1)<<(shift-1) - 1 + uint32(h&1)) >> shift)
	return Float16{h}
}

// Float32 converts a binary16 value to float32 exactly (the conversion is
// always lossless in this direction). It is a single load from the 65,536
// entry decode table (table.go), built at init from float32Scalar and
// pinned to it exhaustively by TestDecodeTableExhaustive.
func (h Float16) Float32() float32 { return decTable[h.bits] }

// float32Scalar is the branchy reference decode used to build the table
// and to verify it. Kept bit-for-bit as originally shipped.
func float32Scalar(h Float16) float32 {
	sign := uint32(h.bits&0x8000) << 16
	exp := uint32(h.bits>>10) & 0x1F
	frac := uint32(h.bits & 0x3FF)

	switch {
	case exp == 0x1F: // Inf or NaN
		if frac != 0 {
			return math.Float32frombits(sign | 0x7FC00000 | frac<<13)
		}
		return math.Float32frombits(sign | 0x7F800000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3FF
		return math.Float32frombits(sign | e<<23 | frac<<13)
	}
	return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
}

// IsInf reports whether h is +Inf or -Inf.
func (h Float16) IsInf() bool { return h.bits&0x7FFF == 0x7C00 }

// Round rounds a float32 through binary16 and back — how every
// intermediate value behaves inside an FP16-accumulating GEMM. It is the
// hot operation of the functional FP16 experiments, so the normal range
// takes a branch-light bit-manipulation path: rounding a float32 to a
// 10-bit mantissa is an add-and-mask (with the RNE tie bit taken from bit
// 13), and a mantissa carry propagates into the exponent for free. Values
// that are subnormal in binary16 (|f| < 2^-14), zero, Inf or NaN take the
// exact slow path; results that round to 2^16 or beyond overflow to ±Inf.
func Round(f float32) float32 {
	b := math.Float32bits(f)
	exp := (b >> 23) & 0xFF
	if exp-113 >= 142 { // binary16-subnormal magnitude, zero, Inf, or NaN
		return roundSlow(f)
	}
	r := (b + 0xFFF + ((b >> 13) & 1)) &^ 0x1FFF
	if r&0x7FFFFFFF >= 0x47800000 { // |rounded| >= 65536: overflow
		return math.Float32frombits(b&0x80000000 | 0x7F800000)
	}
	return math.Float32frombits(r)
}

// roundSlow handles the values outside Round's fast range exactly.
func roundSlow(f float32) float32 { return FromFloat32(f).Float32() }
