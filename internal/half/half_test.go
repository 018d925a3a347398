package half

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},
		{-65504, 0xFBFF},
		{5.9604644775390625e-08, 0x0001}, // smallest subnormal 2^-24
		{6.103515625e-05, 0x0400},        // smallest normal 2^-14
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got.Bits() != c.bits {
			t.Errorf("FromFloat32(%g) = %#04x, want %#04x", c.f, got.Bits(), c.bits)
		}
		if h := FromBits(c.bits); !h.IsNaN() {
			if back := h.Float32(); back != c.f {
				t.Errorf("Float16(%#04x).Float32() = %g, want %g", c.bits, back, c.f)
			}
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	for _, f := range []float32{65520, 70000, 1e6, 1e30} {
		h := FromFloat32(f)
		if h != PositiveInfinity {
			t.Errorf("FromFloat32(%g) = %#04x, want +Inf", f, h)
		}
		if h = FromFloat32(-f); h != NegativeInfinity {
			t.Errorf("FromFloat32(%g) = %#04x, want -Inf", -f, h)
		}
	}
	// 65504 is the max finite value; 65519.996 rounds to 65504, 65520 to Inf.
	if h := FromFloat32(65519); h != MaxValue {
		t.Errorf("FromFloat32(65519) = %#04x, want MaxValue (round down)", h)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Fatalf("FromFloat32(NaN) = %#04x, not a NaN", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatalf("NaN did not round-trip")
	}
	if h.IsInf() {
		t.Fatal("NaN misclassified as Inf")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1 and the next representable
	// binary16 value (1 + 2^-10); RNE must round to the even fraction (1).
	f := float32(1) + float32(1)/2048
	if got := FromFloat32(f); got.bits != 0x3C00 {
		t.Errorf("halfway 1+2^-11 = %#04x, want 0x3C00 (ties to even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even is 1+2^-9.
	f = float32(1) + 3*float32(1)/2048
	if got := FromFloat32(f); got.bits != 0x3C02 {
		t.Errorf("halfway 1+3*2^-11 = %#04x, want 0x3C02 (ties to even)", got)
	}
	// Just above halfway must round up.
	f = float32(1) + float32(1)/2048 + float32(1)/(1<<20)
	if got := FromFloat32(f); got.bits != 0x3C01 {
		t.Errorf("above halfway = %#04x, want 0x3C01", got)
	}
}

func TestSubnormals(t *testing.T) {
	// All subnormal bit patterns must round-trip exactly.
	for b := uint16(1); b < 0x0400; b++ {
		bits := Float16{b}
		f := bits.Float32()
		if got := FromFloat32(f); got != bits {
			t.Fatalf("subnormal %#04x round-trip = %#04x", bits, got)
		}
	}
}

// finite reports whether h is neither Inf nor NaN.
func finite(h Float16) bool { return !h.IsInf() && !h.IsNaN() }

func TestRoundTripAllFinite(t *testing.T) {
	// Every finite binary16 value converts to float32 and back unchanged.
	for i := 0; i < 1<<16; i++ {
		h := Float16{uint16(i)}
		if !finite(h) {
			continue
		}
		if got := FromFloat32(h.Float32()); got != h {
			t.Fatalf("round-trip %#04x -> %g -> %#04x", h, h.Float32(), got)
		}
	}
}

func TestPropertyConversionMonotonic(t *testing.T) {
	// For finite positive floats a <= b, conversion preserves order
	// (weakly). Property-based with random pairs.
	f := func(x, y float32) bool {
		a, b := float32(math.Abs(float64(x))), float32(math.Abs(float64(y)))
		if a > b {
			a, b = b, a
		}
		ha, hb := FromFloat32(a), FromFloat32(b)
		return ha.Float32() <= hb.Float32()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundingError(t *testing.T) {
	// Relative rounding error of a single conversion is at most 2^-11
	// for values in the normal range.
	f := func(x float32) bool {
		if x != x || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax < 6.2e-05 || ax > 65000 {
			return true // outside normal range
		}
		h := FromFloat32(x)
		rel := math.Abs(float64(h.Float32())-float64(x)) / ax
		return rel <= 1.0/2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDotAccumulationOverflow(t *testing.T) {
	// A dot product of two 128-dim vectors with entries 512/sqrt(128) has
	// true value 512*512 = 262144 > 65504, so FP16 accumulation must
	// overflow. This is exactly the SIFT norm-512 overflow from Table 2.
	d := 128
	v := make(Vector, d)
	x := float32(512) / float32(math.Sqrt(float64(d)))
	for i := range v {
		v[i] = FromFloat32(x)
	}
	if got := dot(v, v); got != PositiveInfinity {
		t.Errorf("norm-512 self dot = %v, want +Inf", got.Float32())
	}
	// Scaling both vectors by 2^-2 keeps the dot at 262144/16 = 16384,
	// comfortably finite.
	s := PowerOfTwoScale(-2)
	w := make(Vector, d)
	for i := range w {
		w[i] = FromFloat32(x * s)
	}
	got := dot(w, w).Float32()
	if got < 16000 || got > 16700 {
		t.Errorf("scaled self dot = %g, want ~16384", got)
	}
}

func TestPowerOfTwoScale(t *testing.T) {
	cases := map[int]float32{0: 1, 1: 2, 3: 8, -1: 0.5, -7: 0.0078125, -16: 1.52587890625e-05}
	for exp, want := range cases {
		if got := PowerOfTwoScale(exp); got != want {
			t.Errorf("PowerOfTwoScale(%d) = %g, want %g", exp, got, want)
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	src := []float32{0, 1, -1, 0.5, 1024, -65504}
	v := make(Vector, len(src))
	for i, f := range src {
		v[i] = FromFloat32(f)
	}
	for i, h := range v {
		if f := h.Float32(); f != src[i] {
			t.Errorf("element %d: %g != %g", i, f, src[i])
		}
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	var sink Float16
	for i := 0; i < b.N; i++ {
		sink = FromFloat32(float32(i) * 0.001)
	}
	_ = sink
}

func BenchmarkToFloat32(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = Float16{uint16(i & 0x7BFF)}.Float32()
	}
	_ = sink
}

func TestRoundMatchesExactConversion(t *testing.T) {
	// The fast Round path must agree bit-for-bit with the exact
	// FromFloat32 -> Float32 composition for every interesting value.
	check := func(f float32) {
		t.Helper()
		want := FromFloat32(f).Float32()
		got := Round(f)
		wb := math.Float32bits(want)
		gb := math.Float32bits(got)
		if wb != gb && !(math.IsNaN(float64(want)) && math.IsNaN(float64(got))) {
			t.Fatalf("Round(%g) = %g (%#08x), want %g (%#08x)", f, got, gb, want, wb)
		}
	}
	// Every binary16 boundary: all 65536 half values and their midpoints.
	for i := 0; i < 1<<16; i++ {
		h := Float16{uint16(i)}
		if h.IsNaN() {
			continue
		}
		f := h.Float32()
		check(f)
		if finite(h) {
			next := Float16{uint16(i + 1)}
			if finite(next) && (h.bits&0x8000) == (next.bits&0x8000) {
				mid := (float64(f) + float64(next.Float32())) / 2
				check(float32(mid))
				check(float32(mid) * (1 + 1e-7))
			}
		}
	}
	// Overflow boundary cases.
	for _, f := range []float32{65504, 65519, 65520, 65536, 1e10, -65520, -1e10} {
		check(f)
	}
	// Random sweep.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		f := math.Float32frombits(rng.Uint32())
		if f != f {
			continue
		}
		check(f)
	}
}

func BenchmarkRound(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = Round(float32(i)*0.001 + sink*1e-9)
	}
	_ = sink
}

// IsNaN reports whether h is a NaN.
func (h Float16) IsNaN() bool { return h.bits&0x7C00 == 0x7C00 && h.bits&0x3FF != 0 }

// dot is the dot product of two equal-length binary16 vectors with full
// FP16 accumulation semantics: each product and each partial sum is
// rounded to binary16, as in pre-Volta HGEMM.
func dot(a, b Vector) Float16 {
	var acc Float16 // +0
	for i := range a {
		acc = FromFloat32(FromFloat32(a[i].Float32()*b[i].Float32()).Float32() + acc.Float32())
	}
	return acc
}
