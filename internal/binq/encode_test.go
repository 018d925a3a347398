package binq

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"texid/internal/blas"
)

// encodeCase is one Encode input: thresholds, a rows×cols matrix with the
// given stride, and the codes already in dst (with or without spare
// capacity).
type encodeCase struct {
	t      Thresholds
	mat    *blas.Matrix
	prefix []Code
	spare  int
}

// checkEncode runs Encode (the host's tier) and EncodePortable (the scalar
// loop) on the same case and fails on any code that differs, on a dst
// prefix that moved, or on a length other than prefix + cols.
func checkEncode(t *testing.T, c encodeCase) {
	t.Helper()
	dst := make([]Code, len(c.prefix), len(c.prefix)+c.spare)
	copy(dst, c.prefix)
	got := c.t.Encode(c.mat, dst)
	want := c.t.EncodePortable(c.mat, slices.Clone(c.prefix))
	if len(got) != len(c.prefix)+c.mat.Cols || !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%d×%d stride %d prefix %d spare %d: code %d = %#x, scalar %#x",
					c.mat.Rows, c.mat.Cols, c.mat.Stride, len(c.prefix), c.spare, i, got[i], want[i])
			}
		}
		t.Fatalf("%d×%d stride %d prefix %d spare %d: %d codes, scalar %d",
			c.mat.Rows, c.mat.Cols, c.mat.Stride, len(c.prefix), c.spare, len(got), len(want))
	}
}

// encodeValue draws one threshold or value: a tie with the threshold at its
// row, a NaN of either sign (payloads vary), ±0, ±Inf, or a float near the
// threshold range. kind picks which; bits supplies the payload, sign and
// literal.
func encodeValue(kind byte, bits uint32, tie float32) float32 {
	switch kind % 8 {
	case 0, 1:
		return tie
	case 2:
		return math.Float32frombits(bits&0x803FFFFF | 0x7FC00000) // quiet NaN, sign and payload from bits
	case 3:
		return math.Float32frombits(bits&0x80000000 | 0x7F800001) // signalling pattern
	case 4:
		return math.Float32frombits(bits & 0x80000000) // ±0
	case 5:
		return math.Float32frombits(bits&0x80000000 | 0x7F800000) // ±Inf
	}
	return math.Float32frombits(bits)
}

// TestEncodeTiersMatch holds the native encoder (encode128 through Encode)
// to EncodePortable, bit for bit: random thresholds and values, values
// equal to their threshold, NaN (both signs, quiet and signalling
// patterns) as value and as threshold, ±0 against ∓0, ±Inf; column counts
// 0…3, 17 and 40; tight and strided matrices; an empty dst, a non-empty
// one without spare capacity and one with it; and dimensions below
// MaxDim, which must take the portable tier (the kernel would read a
// whole 128-float column). Skips where the host lacks the native tier;
// scripts/check.sh runs it with -v, so the log says which.
func TestEncodeTiersMatch(t *testing.T) {
	if !useAVX512F {
		t.Skip("no AVX-512 tier on this host/build")
	}
	rng := rand.New(rand.NewSource(45))
	var ties, nans int
	for _, rows := range []int{MaxDim, 1, 63, 64, 100, 127} {
		for _, cols := range []int{0, 1, 2, 3, 17, 40} {
			for _, pad := range []int{0, 3} {
				for _, prefix := range []int{0, 2} {
					for _, spare := range []int{0, cols + 5} {
						th := make(Thresholds, MaxDim)
						for i := range th {
							th[i] = encodeValue(byte(rng.Intn(16)), rng.Uint32()&0x80000000|math.Float32bits(rng.Float32()), 0.5)
						}
						stride := rows + pad
						mat := &blas.Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, cols*stride)}
						for j := 0; j < cols; j++ {
							for i, col := 0, mat.Col(j); i < rows; i++ {
								col[i] = encodeValue(byte(rng.Intn(12)), rng.Uint32()&0x80000000|math.Float32bits(rng.Float32()), th[i])
								if col[i] == th[i] {
									ties++
								}
								if col[i] != col[i] || th[i] != th[i] {
									nans++
								}
							}
						}
						pre := make([]Code, prefix)
						for i := range pre {
							pre[i] = Code{rng.Uint64(), rng.Uint64()}
						}
						checkEncode(t, encodeCase{th, mat, pre, spare})
					}
				}
			}
		}
	}
	if ties == 0 || nans == 0 {
		t.Fatalf("%d ties and %d NaN compares; both must occur", ties, nans)
	}
	t.Logf("tiers agree; %d ties, %d NaN compares", ties, nans)
}

// FuzzEncodeTiers holds the host's encode tier to EncodePortable on
// arbitrary inputs. shape picks the row count (MaxDim for even shapes, so
// the native tier runs, else 1…MaxDim), the column count (0…40), the
// stride's padding (0…3), the dst prefix (0…3 codes) and whether dst has
// spare capacity. data draws the thresholds, then the values: each takes
// one kind byte and four bytes of bits (see encodeValue: ties with the
// threshold, NaNs, ±0, ±Inf, or the literal bits), and data wraps around
// when it runs out. The seed corpus under testdata/fuzz is the table
// test's shapes.
func FuzzEncodeTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		rows := MaxDim
		if shape&1 != 0 {
			rows = 1 + int(shape>>1)%MaxDim
		}
		cols := int(shape>>8&0xFF) % 41
		stride := rows + int(shape>>16&3)
		prefix := int(shape >> 20 & 3)
		spare := 0
		if shape>>22&1 != 0 {
			spare = cols + 1
		}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		draw := func(tie float32) float32 {
			kind := next()
			bits := uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24
			return encodeValue(kind, bits, tie)
		}
		th := make(Thresholds, MaxDim)
		for i := range th {
			th[i] = draw(0.5)
		}
		mat := &blas.Matrix{Rows: rows, Cols: cols, Stride: stride, Data: make([]float32, cols*stride)}
		for j := 0; j < cols; j++ {
			for i, col := 0, mat.Col(j); i < rows; i++ {
				col[i] = draw(th[i])
			}
		}
		pre := make([]Code, prefix)
		for i := range pre {
			pre[i] = Code{uint64(next()) * 0x0101010101010101, uint64(next())}
		}
		checkEncode(t, encodeCase{th, mat, pre, spare})
	})
}
