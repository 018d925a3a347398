package blas

import (
	"encoding/binary"
	"math"
	"testing"

	"texid/internal/half"
)

// halfConvertBits is the conversion tier tables' input: ±0, float32
// subnormals, half's round-to-nearest-even ties at every exponent
// (half.AppendTies), the 65504/65520 overflow edge of both signs, the
// largest float32s, ±Inf and NaN payloads of both signs.
func halfConvertBits() []uint32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x00000002, 0x003FFFFF, 0x00400000, 0x007FFFFF, // subnormals
		0x80000001, 0x80400000, 0x807FFFFF,
		0x00800000, 0x80800000, // smallest normals
		0x477FE000, 0x477FEFFF, 0x477FF000, 0x477FF001, 0x47800000, // 65504 … 65536
		0xC77FE000, 0xC77FEFFF, 0xC77FF000, 0xC77FF001, 0xC7800000,
		0x7F7FFFFF, 0xFF7FFFFF, // ±max float32
		0x7F800000, 0xFF800000, // ±Inf
		0x7F800001, 0x7FA00000, 0x7FC00000, 0x7FC01234, 0x7FFFE000, 0x7FFFFFFF, // NaNs
		0xFF800001, 0xFFA00000, 0xFFC00000, 0xFFC01234, 0xFFFFE000, 0xFFFFFFFF,
	}
	return half.AppendTies(bits)
}

// halfConvertScales are the tables' scale factors: 1, powers of two that
// move values across the overflow and subnormal edges, factors that round
// in the multiply, a negative one, and ±0, ±Inf and NaN, so the multiply
// itself makes zeros, infinities and NaNs of either sign.
var halfConvertScales = []float32{
	1, 0.5, 1.0 / 256, 65536, 3, 0.1, -1, -7.25, 1e-30, 1e30,
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFA00001),
}

// sameHalf reports whether got matches want, the scalar loop's result for
// v·scale. Where v and scale are both NaN the product's sign is the
// compiler's choice, not Go's: x86 returns the first operand's NaN, and the
// scalar loop multiplies into the scale's register in a plain build but
// into the value's in the fuzzing build's instrumented one. There either
// canonical NaN, 0x7E00 or 0xFE00, matches.
func sameHalf(got, want half.Float16, v, scale float32) bool {
	return got == want || v != v && scale != scale && got.Bits()&0x7FFF == 0x7E00 && want.Bits()&0x7FFF == 0x7E00
}

// checkHalfConvert converts src at scale on the host's tier (halfConvert)
// and on the scalar loop (halfConvertPortable) and fails on any result bit
// or overflow count that differs (sameHalf).
func checkHalfConvert(t *testing.T, src []float32, scale float32) {
	t.Helper()
	got, want := make(half.Vector, len(src)), make(half.Vector, len(src))
	og, ow := halfConvert(got, src, scale), halfConvertPortable(want, src, scale)
	for i := range want {
		if !sameHalf(got[i], want[i], src[i], scale) {
			t.Fatalf("scale %#08x n=%d: element %d (%#08x): native %#04x, scalar %#04x",
				math.Float32bits(scale), len(src), i, math.Float32bits(src[i]), got[i].Bits(), want[i].Bits())
		}
	}
	if og != ow {
		t.Fatalf("scale %#08x n=%d: native counts %d overflows, scalar %d", math.Float32bits(scale), len(src), og, ow)
	}
}

// checkHalfMatrix converts a rows-row matrix of src with stride rows+pad
// through HalfFromMatrixInto (into a reused, oversized h) and checks it
// against the scalar loop column by column.
func checkHalfMatrix(t *testing.T, src []float32, rows, pad int, scale float32, h *HalfMatrix) {
	t.Helper()
	stride := rows + pad
	cols := len(src) / stride
	if cols == 0 {
		return
	}
	m := &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: src[:(cols-1)*stride+rows]}
	og := HalfFromMatrixInto(m, scale, h)
	if h.Rows != rows || h.Cols != cols || h.Stride != rows || len(h.Data) != rows*cols {
		t.Fatalf("HalfFromMatrixInto shaped %d×%d stride %d len %d, want %d×%d tight",
			h.Rows, h.Cols, h.Stride, len(h.Data), rows, cols)
	}
	want := make(half.Vector, rows)
	ow := 0
	for j := 0; j < cols; j++ {
		ow += halfConvertPortable(want, m.Col(j), scale)
		for i, w := range want {
			if g := h.Col(j)[i]; !sameHalf(g, w, m.Col(j)[i], scale) {
				t.Fatalf("scale %#08x %d×%d stride %d: element (%d,%d): native %#04x, scalar %#04x",
					math.Float32bits(scale), rows, cols, stride, i, j, g.Bits(), w.Bits())
			}
		}
	}
	if og != ow {
		t.Fatalf("scale %#08x %d×%d stride %d: native counts %d overflows, scalar %d",
			math.Float32bits(scale), rows, cols, stride, og, ow)
	}
}

// TestHalfConvertTiersMatch holds the native float32→binary16 conversion
// (cvtHalf16 plus its scalar tail) to halfConvertPortable, bit for bit and
// in the ±Inf count, on halfConvertBits at every scale of
// halfConvertScales: as runs of 1…48 elements and the whole table (so
// every tail length), and as strided matrices of 1…40 rows through
// HalfFromMatrixInto (so column runs that are no multiple of 16). Skips
// where the host lacks the native tier; scripts/check.sh runs it with -v,
// so the log says which.
func TestHalfConvertTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 tier on this host/build")
	}
	bits := halfConvertBits()
	src := make([]float32, len(bits))
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
	}
	var h HalfMatrix
	for _, scale := range halfConvertScales {
		checkHalfConvert(t, src, scale)
		for n := 1; n <= 48; n++ {
			for off := 0; off+n <= len(src); off += 7 * n {
				checkHalfConvert(t, src[off:off+n], scale)
			}
		}
		for rows := 1; rows <= 40; rows++ {
			checkHalfMatrix(t, src, rows, rows%3, scale, &h)
		}
	}
}

// FuzzHalfConvertTiers holds the host's conversion tier to the scalar loop
// on arbitrary float32s: data is read as little-endian float32s, scaleBits
// is the scale's bit pattern, and the values convert both as one run and
// as a matrix of 1 + rows%48 rows with a stride of one more. The seed
// corpus under testdata/fuzz is the table test's values at its scales.
func FuzzHalfConvertTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, scaleBits uint32, rows uint8, data []byte) {
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		scale := math.Float32frombits(scaleBits)
		checkHalfConvert(t, src, scale)
		var h HalfMatrix
		checkHalfMatrix(t, src, 1+int(rows)%48, 1, scale, &h)
	})
}

// TestHalfColumnsIntoMatchesConcat holds HalfColumnsInto to
// HalfFromMatrixInto of the float32 concatenation it replaces, on tight
// and strided sources whose element counts are no multiple of 16.
func TestHalfColumnsIntoMatchesConcat(t *testing.T) {
	bits := halfConvertBits()
	src := make([]float32, len(bits))
	for i, b := range bits {
		src[i] = math.Float32frombits(b)
	}
	const rows = 13
	var ms []*Matrix
	for at, cols := 0, 1; at+(cols+1)*(rows+2) <= len(src) && len(ms) < 6; at, cols = at+(cols+1)*(rows+2), cols+2 {
		stride := rows + 2*(len(ms)%2) // alternate tight and strided sources
		ms = append(ms, &Matrix{Rows: rows, Cols: cols, Stride: stride, Data: src[at : at+(cols-1)*stride+rows]})
	}
	for _, scale := range halfConvertScales {
		var want, got HalfMatrix
		concat := ConcatColumns(ms...)
		ow := HalfFromMatrixInto(concat, scale, &want)
		og := HalfColumnsInto(ms, scale, &got)
		if got.Rows != want.Rows || got.Cols != want.Cols || got.Stride != want.Stride || og != ow {
			t.Fatalf("scale %#08x: %d×%d stride %d, %d overflows; concat gives %d×%d stride %d, %d",
				math.Float32bits(scale), got.Rows, got.Cols, got.Stride, og, want.Rows, want.Cols, want.Stride, ow)
		}
		for i, w := range want.Data {
			if !sameHalf(got.Data[i], w, concat.Data[i], scale) {
				t.Fatalf("scale %#08x: element %d: %#04x, concat gives %#04x", math.Float32bits(scale), i, got.Data[i].Bits(), w.Bits())
			}
		}
	}
}
