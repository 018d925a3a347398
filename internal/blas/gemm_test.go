package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int, scale float32) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return m
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[j*m.Stride+i] = v }

// AddRowVector adds v[i] to every element of row i of C, in place: step 4
// of Algorithm 1 done unfused, the oracle of Top2AddRows' fused add.
func AddRowVector(C *Matrix, v []float32) {
	for j := 0; j < C.Cols; j++ {
		col := C.Col(j)
		for i := range col {
			col[i] += v[i]
		}
	}
}

// naiveGemmTN is the reference implementation used to validate the kernel.
func naiveGemmTN(alpha float32, A, B *Matrix, beta float32, C *Matrix) {
	for i := 0; i < A.Cols; i++ {
		for j := 0; j < B.Cols; j++ {
			var s float64
			for l := 0; l < A.Rows; l++ {
				s += float64(A.At(l, i)) * float64(B.At(l, j))
			}
			C.Set(i, j, alpha*float32(s)+beta*C.At(i, j))
		}
	}
}

func TestGemmTNMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {4, 3, 2}, {16, 16, 8}, {33, 17, 5}, {64, 48, 128}} {
		m, n, k := dims[0], dims[1], dims[2]
		A := randomMatrix(rng, k, m, 1)
		B := randomMatrix(rng, k, n, 1)
		C := NewMatrix(m, n)
		want := NewMatrix(m, n)
		GemmTN(-2, A, B, 0, C)
		naiveGemmTN(-2, A, B, 0, want)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if diff := math.Abs(float64(C.At(i, j) - want.At(i, j))); diff > 1e-4 {
					t.Fatalf("dims %v: C(%d,%d) = %g, want %g", dims, i, j, C.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestGemmTNBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	A := randomMatrix(rng, 8, 5, 1)
	B := randomMatrix(rng, 8, 7, 1)
	C := randomMatrix(rng, 5, 7, 1)
	want := C.Clone()
	GemmTN(1.5, A, B, 0.5, C)
	naiveGemmTN(1.5, A, B, 0.5, want)
	for j := 0; j < 7; j++ {
		for i := 0; i < 5; i++ {
			if diff := math.Abs(float64(C.At(i, j) - want.At(i, j))); diff > 1e-4 {
				t.Fatalf("C(%d,%d) = %g, want %g", i, j, C.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestGemmTNPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	GemmTN(1, NewMatrix(3, 2), NewMatrix(4, 2), 0, NewMatrix(2, 2))
}

func TestSquaredNorms(t *testing.T) {
	A := FromColumns(3, [][]float32{{1, 2, 2}, {0, 0, 0}, {-3, 4, 0}})
	want := []float32{9, 0, 25}
	got := SquaredNorms(A)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("norm %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestEq1Identity(t *testing.T) {
	// The GEMM decomposition of Eq. 1 must reproduce brute-force squared
	// Euclidean distances: ρ² = N_R + N_Q - 2·RᵀQ.
	rng := rand.New(rand.NewSource(3))
	d, m, n := 16, 9, 11
	R := randomMatrix(rng, d, m, 2)
	Q := randomMatrix(rng, d, n, 2)
	C := NewMatrix(m, n)
	GemmTN(-2, R, Q, 0, C)
	nr := SquaredNorms(R)
	nq := SquaredNorms(Q)
	AddRowVector(C, nr)
	for j := 0; j < n; j++ {
		for i := range C.Col(j) {
			C.Col(j)[i] += nq[j]
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var want float64
			for l := 0; l < d; l++ {
				diff := float64(R.At(l, i) - Q.At(l, j))
				want += diff * diff
			}
			if diff := math.Abs(float64(C.At(i, j)) - want); diff > 1e-3 {
				t.Fatalf("ρ²(%d,%d) = %g, want %g", i, j, C.At(i, j), want)
			}
		}
	}
}

func TestConcatColumns(t *testing.T) {
	a := FromColumns(2, [][]float32{{1, 2}, {3, 4}})
	b := FromColumns(2, [][]float32{{5, 6}})
	c := ConcatColumns(a, b)
	if c.Rows != 2 || c.Cols != 3 {
		t.Fatalf("concat shape %dx%d", c.Rows, c.Cols)
	}
	if c.At(0, 2) != 5 || c.At(1, 1) != 4 {
		t.Fatalf("concat contents wrong: %v", c.Data)
	}
	// Batched GEMM over the concatenation equals per-matrix GEMMs.
	q := FromColumns(2, [][]float32{{1, 1}, {0, 2}})
	big := NewMatrix(3, 2)
	GemmTN(1, c, q, 0, big)
	small := NewMatrix(2, 2)
	GemmTN(1, a, q, 0, small)
	for j := 0; j < 2; j++ {
		for i := 0; i < 2; i++ {
			if big.At(i, j) != small.At(i, j) {
				t.Fatalf("batched GEMM mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSliceView(t *testing.T) {
	m := FromColumns(2, [][]float32{{1, 2}, {3, 4}, {5, 6}})
	v := m.Slice(1, 3)
	if v.Cols != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("slice view wrong: %+v", v)
	}
	v.Set(0, 0, 99)
	if m.At(0, 1) != 99 {
		t.Fatal("slice does not share storage")
	}
}

func TestPropertyGemmLinearity(t *testing.T) {
	// GEMM is linear in alpha: Gemm(2a) == 2*Gemm(a).
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, m, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		A := randomMatrix(rng, d, m, 1)
		B := randomMatrix(rng, d, n, 1)
		C1 := NewMatrix(m, n)
		C2 := NewMatrix(m, n)
		GemmTN(1, A, B, 0, C1)
		GemmTN(2, A, B, 0, C2)
		for i := range C1.Data {
			if math.Abs(float64(2*C1.Data[i]-C2.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormsNonNegative(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if v != v || math.IsInf(float64(v), 0) {
				vals[i] = 0
			}
			// Keep magnitudes bounded so squares stay finite.
			if vals[i] > 1e18 || vals[i] < -1e18 {
				vals[i] = 1
			}
		}
		A := FromColumns(len(vals), [][]float32{vals})
		return SquaredNorms(A)[0] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGemmTN768(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	A := randomMatrix(rng, 128, 768, 1)
	B := randomMatrix(rng, 128, 768, 1)
	C := NewMatrix(768, 768)
	b.SetBytes(int64(2 * 768 * 768 * 128 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTN(-2, A, B, 0, C)
	}
}
