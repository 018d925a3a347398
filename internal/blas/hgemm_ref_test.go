package blas

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/half"
)

// hgemmRef is the pre-optimization HGemmTN algorithm, kept as the bit-exact
// oracle for the blocked/unrolled/assembly kernels: widen each operand
// element on demand and run one scalar rounding chain per output element,
// exactly as the original per-element dotFP16/dotProductsFP16 loops did.
// half.Round is itself pinned to the original FromFloat32∘Float32 rounding
// by the half package's exhaustive table tests, so this closes the loop
// back to the seed implementation.
func hgemmRef(alpha float32, A, B *HalfMatrix, mode AccumMode, C *Matrix) {
	for j := 0; j < B.Cols; j++ {
		for i := 0; i < A.Cols; i++ {
			var acc float32
			for l := 0; l < A.Rows; l++ {
				p := half.Round(A.At(l, i) * B.At(l, j))
				if mode == AccumFP16 {
					acc = half.Round(acc + p)
				} else {
					acc += p
				}
			}
			C.Col(j)[i] = alpha * acc
		}
	}
}

// fillHalfStress fills h with a deterministic mix of ordinary values and
// every special the rounding chains can encounter: zeros of both signs,
// binary16 subnormals, the largest finite half, ±Inf, and magnitudes big
// enough to overflow an FP16 accumulator mid-chain (so Inf + finite,
// Inf - Inf → NaN, and NaN propagation all occur in the outputs).
func fillHalfStress(h *HalfMatrix, rng *rand.Rand) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		half.SmallestSubnormal.Float32(), -half.SmallestSubnormal.Float32(),
		half.SmallestNormal.Float32(),
		half.Max, -half.Max,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		5e-5, -5e-5, 1024, -4096,
	}
	for idx := range h.Data {
		var v float32
		switch rng.Intn(4) {
		case 0:
			v = specials[rng.Intn(len(specials))]
		case 1:
			v = float32(rng.NormFloat64()) * 100
		case 2:
			v = float32(rng.NormFloat64()) * 0.001
		default:
			v = float32(rng.NormFloat64()) * 8000 // drives accumulator overflow
		}
		h.Data[idx] = half.FromFloat32(v)
	}
}

// sameBits reports bitwise equality of two matrices, NaNs included.
func sameBits(a, b *Matrix) (int, int, bool) {
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float32bits(ca[i]) != math.Float32bits(cb[i]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestHGemmTNMatchesReference pins the rewritten kernels — portable 4-wide,
// scalar tails, and (when the host has F16C) the assembly octet kernel —
// bit-for-bit to the original scalar algorithm, across shapes that exercise
// every tail combination, both accumulation modes, and a GOMAXPROCS sweep.
func TestHGemmTNMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {1, 1, 0}, {3, 5, 7}, {4, 8, 16}, {5, 9, 33},
		{8, 8, 64}, {13, 17, 96}, {16, 24, 128}, {33, 7, 40},
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
			for si, sh := range shapes {
				rng := rand.New(rand.NewSource(int64(1000*si) + int64(mode)))
				A := NewHalfMatrix(sh.k, sh.m)
				B := NewHalfMatrix(sh.k, sh.n)
				fillHalfStress(A, rng)
				fillHalfStress(B, rng)
				got := NewMatrix(sh.m, sh.n)
				want := NewMatrix(sh.m, sh.n)
				HGemmTN(-2, A, B, mode, got)
				hgemmRef(-2, A, B, mode, want)
				if i, j, ok := sameBits(got, want); !ok {
					t.Fatalf("procs=%d mode=%v shape=%dx%dx%d: C[%d,%d] = %x, reference %x",
						procs, mode, sh.m, sh.n, sh.k, i, j,
						math.Float32bits(got.Col(j)[i]), math.Float32bits(want.Col(j)[i]))
				}
			}
		}
	}
}

// TestHGemmTNStagedGatherMatchesFullRows pins the slice-invariance the
// pruned rerank rests on: a staging gathered by StageHalfBlocks from a
// non-contiguous, ascending subset of A's column blocks, run through
// HGemmTNStaged against StageHalf(B), equals the matching rows of HGemmTN
// over the full operands, bit for bit. Stress inputs put ±Inf, subnormals
// and accumulator-overflowing products into the chains, so Inf−Inf NaNs
// arise and propagate; widths that are not multiples of four move the
// kernels' row tail across block boundaries. NaN *inputs* are left out on
// purpose: when two different NaNs meet, x86 keeps the first operand's, and
// operand order differs between the unrolled, tail and asm kernels — only
// the single default NaN the chains generate is position-independent. CI
// reruns the package under TEXID_NOASM=1.
func TestHGemmTNStagedGatherMatchesFullRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, k = 19, 72
	cases := []struct {
		width  int
		blocks []int32
	}{
		{4, []int32{0, 3, 4, 9}},
		{5, []int32{1, 6}},
		{3, []int32{2, 5, 7, 8, 11}},
		{7, []int32{11}},
		{6, nil},
	}
	nans := 0
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for ci, tc := range cases {
			rng := rand.New(rand.NewSource(int64(31 + ci)))
			A := NewHalfMatrix(k, 12*tc.width)
			B := NewHalfMatrix(k, n)
			fillHalfStress(A, rng)
			fillHalfStress(B, rng)
			var aw, bw []float32
			for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
				full := NewMatrix(A.Cols, n)
				HGemmTN(-2, A, B, mode, full)
				aw = StageHalfBlocks(A, tc.width, tc.blocks, aw)
				bw = StageHalf(B, bw)
				m := len(tc.blocks) * tc.width
				got := NewMatrix(m, n)
				HGemmTNStaged(-2, aw, bw, m, n, k, mode, got)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						src := int(tc.blocks[i/tc.width])*tc.width + i%tc.width
						if g, w := math.Float32bits(got.Col(j)[i]), math.Float32bits(full.Col(j)[src]); g != w {
							t.Fatalf("procs=%d case=%d mode=%v: staged C[%d,%d] = %x, full C[%d,%d] = %x",
								procs, ci, mode, i, j, g, src, j, w)
						}
						if v := got.Col(j)[i]; v != v {
							nans++
						}
					}
				}
			}
		}
	}
	if nans == 0 {
		t.Fatal("stress inputs produced no NaN output; the comparison did not cover NaN propagation")
	}
}

// TestHGemmAsmMatchesPortable compares the assembly octet kernel against
// the portable block kernel directly, in-process, on stress inputs. On
// hosts without F16C (or under TEXID_NOASM=1) the two paths are the same
// code and the test still passes vacuously; CI runs the package both ways.
func TestHGemmAsmMatchesPortable(t *testing.T) {
	if !useF16C {
		t.Skip("no F16C asm path on this host/build")
	}
	const m, n, k = 12, 16, 120
	rng := rand.New(rand.NewSource(7))
	A := NewHalfMatrix(k, m)
	B := NewHalfMatrix(k, n)
	fillHalfStress(A, rng)
	fillHalfStress(B, rng)
	paw, aw := getF32(m * k)
	defer f32Pool.Put(paw)
	pbw, bw := getF32(n * k)
	defer f32Pool.Put(pbw)
	widenHalf(A, aw)
	widenHalf(B, bw)
	for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
		gotM := NewMatrix(m, n)
		wantM := NewMatrix(m, n)
		for j0 := 0; j0 < n; j0 += 8 {
			hgemmOctAsm(-2, aw, bw, m, k, j0, mode, gotM)
		}
		hgemmBlockGo(-2, aw, bw, 0, m, k, 0, n, mode, wantM)
		if i, j, ok := sameBits(gotM, wantM); !ok {
			t.Fatalf("mode=%v: asm C[%d,%d] = %x, portable %x", mode, i, j,
				math.Float32bits(gotM.Col(j)[i]), math.Float32bits(wantM.Col(j)[i]))
		}
	}
}

// TestWidenColAsmMatchesTable pins the F16C widen lane to the decode table
// on every half bit pattern, NaN payloads included.
func TestWidenColAsmMatchesTable(t *testing.T) {
	if !useF16C {
		t.Skip("no F16C asm path on this host/build")
	}
	src := make(half.Vector, 1<<16)
	for i := range src {
		src[i] = half.Float16(i)
	}
	out := make([]float32, len(src))
	widenCol(out, src)
	for i, h := range src {
		if math.Float32bits(out[i]) != math.Float32bits(h.Float32()) {
			t.Fatalf("widenCol[%#04x] = %#08x, table = %#08x",
				i, math.Float32bits(out[i]), math.Float32bits(h.Float32()))
		}
	}
	// Odd lengths exercise the 8-wide asm body plus the scalar tail.
	for _, n := range []int{1, 7, 8, 9, 23, 64, 65} {
		widenCol(out[:n], src[1234:1234+n])
		for i := 0; i < n; i++ {
			if math.Float32bits(out[i]) != math.Float32bits(src[1234+i].Float32()) {
				t.Fatalf("widenCol len %d mismatch at %d", n, i)
			}
		}
	}
}

// TestRoundFastMatchesRound sweeps roundFast+roundHalfSlow (the kernel's
// inlined form) and roundHalf against half.Round on specials and a large
// deterministic sample.
func TestRoundFastMatchesRound(t *testing.T) {
	check := func(f float32) {
		t.Helper()
		want := math.Float32bits(half.Round(f))
		r, ok := roundFast(f)
		if !ok {
			r = roundHalfSlow(f)
		}
		if math.Float32bits(r) != want {
			t.Fatalf("roundFast chain(%x) = %x, half.Round = %x", math.Float32bits(f), math.Float32bits(r), want)
		}
		if got := math.Float32bits(roundHalf(f)); got != want {
			t.Fatalf("roundHalf(%x) = %x, half.Round = %x", math.Float32bits(f), got, want)
		}
	}
	for _, b := range []uint32{
		0, 0x80000000, 1, 0x00800000, 0x33000000, 0x33000001, 0x38800000,
		0x477FE000, 0x477FF000, 0x47800000, 0x7F800000, 0xFF800000,
		0x7FC00000, 0x7F800001, 0xFFC01234,
	} {
		check(math.Float32frombits(b))
	}
	x := uint32(0xCAFEBABE)
	for i := 0; i < 2_000_000; i++ {
		x = x*1664525 + 1013904223
		check(math.Float32frombits(x))
	}
}
