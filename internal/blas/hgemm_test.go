package blas

import (
	"math"
	"math/rand"
	"testing"

	"texid/internal/half"
)

// NewHalfMatrix allocates a zeroed rows×cols binary16 matrix.
func NewHalfMatrix(rows, cols int) *HalfMatrix {
	return &HalfMatrix{Rows: rows, Cols: cols, Stride: rows, Data: make(half.Vector, rows*cols)}
}

// At returns element (i, j) widened to float32.
func (m *HalfMatrix) At(i, j int) float32 { return m.Data[j*m.Stride+i].Float32() }

func TestHalfFromMatrixOverflowCount(t *testing.T) {
	m := FromColumns(2, [][]float32{{1e9, 1}, {2, -1e9}})
	h, overflow := HalfFromMatrix(m, 1)
	if overflow != 2 {
		t.Fatalf("overflow = %d, want 2", overflow)
	}
	infs := 0
	for _, v := range h.Data {
		if v.IsInf() {
			infs++
		}
	}
	if infs != 2 {
		t.Fatalf("%d infinities stored, want 2", infs)
	}
	_, overflow = HalfFromMatrix(m, 1e-6)
	if overflow != 0 {
		t.Fatalf("scaled overflow = %d, want 0", overflow)
	}
}

func TestHGemmMatchesFloatGemmForSmallValues(t *testing.T) {
	// With small well-conditioned inputs, FP16 GEMM should track FP32 GEMM
	// to within binary16 precision.
	rng := rand.New(rand.NewSource(10))
	d, m, n := 32, 12, 9
	A := randomMatrix(rng, d, m, 0.25)
	B := randomMatrix(rng, d, n, 0.25)
	hA, _ := HalfFromMatrix(A, 1)
	hB, _ := HalfFromMatrix(B, 1)

	want := NewMatrix(m, n)
	GemmTN(-2, hA.Float32(), hB.Float32(), 0, want)

	for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
		got := NewMatrix(m, n)
		HGemmTN(-2, hA, hB, mode, got)
		for i := range got.Data {
			w := float64(want.Data[i])
			g := float64(got.Data[i])
			tol := math.Max(1e-2, math.Abs(w)*float64(d)/2048)
			if math.Abs(g-w) > tol {
				t.Fatalf("%v: element %d = %g, want %g (tol %g)", mode, i, g, w, tol)
			}
		}
	}
}

func TestHGemmFP16AccumulationOverflows(t *testing.T) {
	// Unscaled OpenCV-convention SIFT descriptors (L2 norm 512) make RᵀQ
	// entries up to 512² = 262144, beyond binary16 range: the FP16
	// accumulator must produce Inf, while FP32 accumulation survives.
	d := 128
	col := make([]float32, d)
	v := float32(512) / float32(math.Sqrt(float64(d)))
	for i := range col {
		col[i] = v
	}
	A := FromColumns(d, [][]float32{col})
	hA, overflow := HalfFromMatrix(A, 1)
	if overflow != 0 {
		t.Fatalf("operands themselves overflowed: %d", overflow)
	}
	C := NewMatrix(1, 1)
	HGemmTN(-2, hA, hA, AccumFP16, C)
	if !math.IsInf(float64(C.At(0, 0)), -1) {
		t.Fatalf("FP16 accumulate = %g, want -Inf", C.At(0, 0))
	}
	HGemmTN(-2, hA, hA, AccumFP32, C)
	if math.IsInf(float64(C.At(0, 0)), 0) {
		t.Fatalf("FP32 accumulate overflowed: %g", C.At(0, 0))
	}
	// With the paper's production scale factor 2^-7, even FP16
	// accumulation stays finite: 262144·2^-14 = 16.
	s := half.PowerOfTwoScale(-7)
	hS, _ := HalfFromMatrix(A, s)
	HGemmTN(-2, hS, hS, AccumFP16, C)
	got := C.At(0, 0)
	if math.IsInf(float64(got), 0) || math.Abs(float64(got)+32) > 1 {
		t.Fatalf("scaled FP16 accumulate = %g, want ~-32", got)
	}
}

func TestHGemmDotMatchesHalfDot(t *testing.T) {
	// The GEMM inner loop must agree exactly with a binary16 dot chain that
	// rounds each product and each partial sum to binary16.
	rng := rand.New(rand.NewSource(11))
	d := 64
	a := make(half.Vector, d)
	b := make(half.Vector, d)
	for i := 0; i < d; i++ {
		a[i] = half.FromFloat32(rng.Float32()*4 - 2)
		b[i] = half.FromFloat32(rng.Float32()*4 - 2)
	}
	hA := &HalfMatrix{Rows: d, Cols: 1, Stride: d, Data: a}
	hB := &HalfMatrix{Rows: d, Cols: 1, Stride: d, Data: b}
	C := NewMatrix(1, 1)
	HGemmTN(1, hA, hB, AccumFP16, C)
	var acc half.Float16
	for i := range a {
		acc = half.FromFloat32(half.FromFloat32(a[i].Float32()*b[i].Float32()).Float32() + acc.Float32())
	}
	if want := acc.Float32(); C.At(0, 0) != want {
		t.Fatalf("HGemm dot = %g, binary16 chain = %g", C.At(0, 0), want)
	}
}

func TestHalfMatrixSliceSharesStorage(t *testing.T) {
	m := NewHalfMatrix(2, 3)
	m.Data[2*1+0] = half.FromFloat32(7) // element (0,1)
	v := m.Slice(1, 3)
	if v.At(0, 0) != 7 {
		t.Fatalf("slice view At(0,0) = %g, want 7", v.At(0, 0))
	}
	if got := m.Float32().At(0, 1); got != 7 {
		t.Fatalf("Float32 widen = %g", got)
	}
}

func TestCompressionError(t *testing.T) {
	// Average relative distance error with scale 2^-7 on unit-norm-512
	// style features should be well under 1% (Table 2 reports ~0.1%).
	rng := rand.New(rand.NewSource(12))
	d, m, n := 128, 32, 32
	R := randomSIFTLike(rng, d, m)
	Q := randomSIFTLike(rng, d, n)

	exact := NewMatrix(m, n)
	GemmTN(-2, R, Q, 0, exact)
	nr := SquaredNorms(R)
	nq := SquaredNorms(Q)
	AddRowVector(exact, nr)
	for j := 0; j < n; j++ {
		for i := range exact.Col(j) {
			exact.Col(j)[i] += nq[j]
		}
	}

	s := half.PowerOfTwoScale(-7)
	hR, _ := HalfFromMatrix(R, s)
	hQ, _ := HalfFromMatrix(Q, s)
	approx := NewMatrix(m, n)
	HGemmTN(-2, hR, hQ, AccumFP16, approx)
	inv := 1 / (s * s)
	var relSum float64
	count := 0
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			ρ2 := approx.At(i, j)*inv + nr[i] + nq[j]
			w := exact.At(i, j)
			if w <= 0 {
				continue
			}
			relSum += math.Abs(float64(ρ2-w)) / float64(w)
			count++
		}
	}
	if count == 0 {
		t.Fatal("no valid distances")
	}
	if avg := relSum / float64(count); avg > 0.01 {
		t.Fatalf("average compression error = %.4f%%, want < 1%%", avg*100)
	}
}

// randomSIFTLike produces columns that mimic OpenCV SIFT descriptors:
// non-negative, L2 norm 512.
func randomSIFTLike(rng *rand.Rand, d, cols int) *Matrix {
	m := NewMatrix(d, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		var norm float64
		for i := range col {
			col[i] = rng.Float32()
			norm += float64(col[i]) * float64(col[i])
		}
		scale := float32(512 / math.Sqrt(norm))
		for i := range col {
			col[i] *= scale
		}
	}
	return m
}

func BenchmarkHGemmTN256(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	A := randomMatrix(rng, 128, 256, 0.1)
	B := randomMatrix(rng, 128, 256, 0.1)
	hA, _ := HalfFromMatrix(A, 1)
	hB, _ := HalfFromMatrix(B, 1)
	C := NewMatrix(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HGemmTN(-2, hA, hB, AccumFP16, C)
	}
}

func TestRoundHalfMatchesHalfRound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(f float32) {
		t.Helper()
		got := roundHalf(f)
		want := half.Round(f)
		if math.Float32bits(got) != math.Float32bits(want) &&
			!(math.IsNaN(float64(got)) && math.IsNaN(float64(want))) {
			t.Fatalf("roundHalf(%g) = %g, half.Round = %g", f, got, want)
		}
	}
	for _, f := range []float32{0, 1, -1, 65504, 65520, 70000, 1e-8, 6.1e-5, -6.1e-5, float32(math.Inf(1))} {
		check(f)
	}
	for i := 0; i < 100000; i++ {
		check(math.Float32frombits(rng.Uint32()))
	}
}
