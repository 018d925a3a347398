package half

import (
	"math"
	"testing"
)

// TestDecodeTableExhaustive pins every one of the 65,536 decode-table
// entries to the scalar reference decode, bit for bit (NaNs included).
func TestDecodeTableExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Float16{uint16(i)}
		got := math.Float32bits(h.Float32())
		want := math.Float32bits(float32Scalar(h))
		if got != want {
			t.Fatalf("decTable[%#04x] = %#08x, scalar decode = %#08x", i, got, want)
		}
	}
}

// checkEncode asserts the table-driven FromFloat32 matches the scalar
// reference on the float32 with bit pattern b.
func checkEncode(t *testing.T, b uint32) {
	t.Helper()
	f := math.Float32frombits(b)
	got := FromFloat32(f)
	want := fromFloat32Scalar(f)
	if got != want {
		t.Fatalf("FromFloat32(%#08x = %g) = %#04x, scalar = %#04x", b, f, got, want)
	}
}

// TestEncodeRoundTripExhaustive converts every binary16 bit pattern to
// float32 and back. Finite halves and infinities must round-trip to the
// identical bit pattern; NaNs must canonicalize exactly as the scalar
// encode does (quiet NaN sign|0x7E00).
func TestEncodeRoundTripExhaustive(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Float16{uint16(i)}
		f := h.Float32()
		got := FromFloat32(f)
		want := fromFloat32Scalar(f)
		if got != want {
			t.Fatalf("round-trip %#04x: FromFloat32 = %#04x, scalar = %#04x", i, got, want)
		}
		if !h.IsNaN() && got != h {
			t.Fatalf("half %#04x does not round-trip: got %#04x", i, got)
		}
		if h.IsNaN() && got.bits != h.bits&0x8000|0x7E00 {
			t.Fatalf("NaN %#04x not canonicalized: got %#04x", i, got)
		}
	}
}

// TestEncodeTieCasesEveryExponent checks FromFloat32 against the scalar
// reference on AppendTies' patterns: at every float32 exponent that can
// reach the encoder, the exact RNE tie above each of four half significands
// (which must round to even) and the values one ULP either side of it
// (which must round toward themselves), so every exponent class (normal,
// subnormal, overflow edge) is covered.
func TestEncodeTieCasesEveryExponent(t *testing.T) {
	for _, b := range AppendTies(nil) {
		checkEncode(t, b)
	}
}

// TestEncodeBoundaries spot-checks the named boundary values where the
// encode tables switch class: subnormal/normal, overflow, zero underflow,
// and the Inf/NaN escape.
func TestEncodeBoundaries(t *testing.T) {
	cases := []struct {
		name string
		bits uint32
	}{
		{"+0", 0x00000000},
		{"-0", 0x80000000},
		{"smallest f32 subnormal", 0x00000001},
		{"largest f32 subnormal", 0x007FFFFF},
		{"smallest f32 normal", 0x00800000},
		{"below half-subnormal threshold", math.Float32bits(float32(1) / (1 << 26))},
		{"half of smallest half subnormal (tie to zero)", 0x33000000},
		{"just above tie to zero", 0x33000001},
		{"smallest half subnormal", 0x33800000},
		{"largest half subnormal", math.Float32bits(0x03FF * float32(1) / (1 << 24))},
		{"subnormal rounding up to smallest normal", 0x387FFFFF},
		{"smallest half normal", 0x38800000},
		{"one", 0x3F800000},
		{"one plus tie", 0x3F800800},
		{"one plus tie + ulp", 0x3F800801},
		{"largest half normal 65504", 0x477FE000},
		{"65504 + below-tie", 0x477FEFFF},
		{"65504 + tie (rounds to Inf)", 0x477FF000},
		{"65520 exactly (tie to Inf)", 0x477FF000},
		{"65536", 0x47800000},
		{"max float32", 0x7F7FFFFF},
		{"+Inf", 0x7F800000},
		{"-Inf", 0xFF800000},
		{"quiet NaN", 0x7FC00000},
		{"signaling-pattern NaN", 0x7F800001},
		{"negative NaN with payload", 0xFFC01234},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkEncode(t, c.bits) })
	}
	// Pin the semantics, not just the equivalence, for the two values the
	// paper's overflow study leans on.
	if got := FromFloat32(65504); got != MaxValue {
		t.Fatalf("FromFloat32(65504) = %#04x, want MaxValue", got)
	}
	if got := FromFloat32(65520); got != PositiveInfinity {
		t.Fatalf("FromFloat32(65520) = %#04x, want +Inf (RNE tie at the overflow boundary)", got)
	}
}

// TestEncodeAgainstScalar sweeps a large deterministic sample of the full
// float32 space (every exponent × varied significands, plus an LCG sweep)
// against the scalar reference.
func TestEncodeAgainstScalar(t *testing.T) {
	for exp := uint32(0); exp <= 255; exp++ {
		for _, frac := range []uint32{
			0, 1, 0x1000, 0x1FFF, 0x2000, 0x2001, 0x3FFF,
			0x400000, 0x5A5A5A, 0x7FF000, 0x7FFFFF,
		} {
			checkEncode(t, exp<<23|frac)
			checkEncode(t, 0x80000000|exp<<23|frac)
		}
	}
	// Deterministic LCG sweep across the whole uint32 space.
	x := uint32(0x12345678)
	for i := 0; i < 4_000_000; i++ {
		x = x*1664525 + 1013904223
		checkEncode(t, x)
	}
}

// fromFloat32Scalar is the branchy reference conversion the encode tables
// are verified against (exhaustively, by TestEncodeAgainstScalar). It is
// kept bit-for-bit as originally shipped; do not "optimize" it.
func fromFloat32Scalar(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // Inf or NaN
		if frac != 0 {
			// NaN: keep a quiet NaN with some payload.
			return Float16{sign | 0x7E00}
		}
		return Float16{sign | 0x7C00}
	case exp == 0 && frac == 0: // signed zero
		return Float16{sign}
	}

	// Unbiased exponent of the float32 value.
	e := exp - 127

	if e > 15 {
		// Too large for binary16 even before rounding.
		return Float16{sign | 0x7C00}
	}

	if e >= -14 {
		// Normal binary16 range. Keep 10 fraction bits, round the rest.
		he := uint16(e+15) << 10
		hf := uint16(frac >> 13)
		// Round to nearest even on the 13 discarded bits.
		rem := frac & 0x1FFF
		half := uint32(0x1000)
		if rem > half || (rem == half && hf&1 == 1) {
			hf++
			if hf == 0x400 { // fraction overflow: bump exponent
				hf = 0
				he += 1 << 10
				if he >= 0x7C00 {
					return Float16{sign | 0x7C00}
				}
			}
		}
		return Float16{sign | he | hf}
	}

	if e < -25 {
		// Rounds to zero even as a subnormal.
		return Float16{sign}
	}

	// Subnormal binary16: implicit leading 1 must be made explicit and the
	// whole significand shifted right.
	sig := frac | 0x800000 // 24-bit significand with explicit leading 1
	shift := uint32(-e - 14 + 13)
	hf := uint16(sig >> shift)
	rem := sig & ((1 << shift) - 1)
	half := uint32(1) << (shift - 1)
	if rem > half || (rem == half && hf&1 == 1) {
		hf++
		// A subnormal rounding up into 0x400 becomes the smallest normal,
		// which the bit pattern already encodes correctly.
	}
	return Float16{sign | hf}
}
