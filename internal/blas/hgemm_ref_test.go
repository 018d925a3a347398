package blas

import (
	"fmt"
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
// scalar tails, and whichever asm tiers the host has (the F16C octet kernel,
// the AVX512-FP16 32×8 tile) — bit-for-bit to the original scalar
// algorithm, across shapes that exercise every tail combination of both asm
// tiles ({68,130,128} is two native panels plus a 4-row tail by sixteen
// octets plus a 2-column tail; {768,256,128} is all full tiles over 24
// parallel panels), both accumulation modes, and a GOMAXPROCS sweep.
func TestHGemmTNMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {1, 1, 0}, {3, 5, 7}, {4, 8, 16}, {5, 9, 33},
		{8, 8, 64}, {13, 17, 96}, {16, 24, 128}, {33, 7, 40},
		{68, 130, 128}, {768, 256, 128},
	}
	for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
		for si, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(1000*si) + int64(mode)))
			A := NewHalfMatrix(sh.k, sh.m)
			B := NewHalfMatrix(sh.k, sh.n)
			fillHalfStress(A, rng)
			fillHalfStress(B, rng)
			want := NewMatrix(sh.m, sh.n)
			hgemmRef(-2, A, B, mode, want)
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := NewMatrix(sh.m, sh.n)
				HGemmTN(-2, A, B, mode, got)
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
// pruned rerank rests on: HGemmTNBlocks over a non-contiguous, ascending
// subset of A's column blocks, with caller-owned staging, equals the
// matching rows of HGemmTN over the full operands, bit for bit, on whichever
// tier the host runs. Stress inputs put ±Inf, subnormals
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
		{6, []int32{}}, // an empty gather, not nil's whole operand
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
			var st Staging
			for _, mode := range []AccumMode{AccumFP16, AccumFP32} {
				full := NewMatrix(A.Cols, n)
				HGemmTN(-2, A, B, mode, full)
				m := len(tc.blocks) * tc.width
				got := NewMatrix(m, n)
				HGemmTNBlocks(-2, A, tc.width, tc.blocks, B, mode, got, &st)
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

// TestHGemmTiersMatch runs the three AccumFP16 tiers — AVX512-FP16, F16C,
// portable — on the same operands in-process. k sweeps {1, 2, 3, 5, 8, 16,
// 33, 128} at value scales 1e-4 … 300, so subnormal, ±Inf and NaN outputs
// all occur, and all three tiers must agree bit for bit. Random binary16
// bit patterns, NaN payloads included, must agree between the two asm
// tiers, which propagate payloads with the same operand order; the portable
// kernel sits that part out, since half.Round canonicalises every NaN to
// sign|0x7E00. The bit-pattern shape is whole F16C octets and quads so no
// element of it falls back to the portable kernel. Skips where the host
// lacks the native tier; CI hosts do, so the log of scripts/check.sh's -v
// run says so.
func TestHGemmTiersMatch(t *testing.T) {
	if !useFP16 || !useF16C {
		t.Skip("no AVX512-FP16 tier on this host/build")
	}
	var subnormal, inf, nan int
	run := func(A, B *HalfMatrix, portable bool, what string) {
		t.Helper()
		m, n, k := A.Cols, B.Cols, A.Rows
		aw, bw := StageHalf(A, nil), StageHalf(B, nil)
		tiers := map[string]*Matrix{"avx512fp16": NewMatrix(m, n), "f16c": NewMatrix(m, n)}
		hgemmNative(-2, A, m, wholeOperand, B, tiers["avx512fp16"])
		hgemmCore(-2, aw, bw, m, n, k, AccumFP16, tiers["f16c"])
		if portable {
			tiers["portable"] = NewMatrix(m, n)
			hgemmBlockGo(-2, aw, bw, 0, m, k, 0, n, AccumFP16, tiers["portable"])
		}
		native := tiers["avx512fp16"]
		for name, got := range tiers {
			if i, j, ok := sameBits(native, got); !ok {
				t.Fatalf("%s: avx512fp16 C[%d,%d] = %x, %s %x", what, i, j,
					math.Float32bits(native.Col(j)[i]), name, math.Float32bits(got.Col(j)[i]))
			}
		}
		for _, v := range native.Data {
			switch d := math.Abs(float64(v / -2)); {
			case d != d:
				nan++
			case math.IsInf(d, 0):
				inf++
			case d != 0 && d < float64(half.SmallestNormal.Float32()):
				subnormal++
			}
		}
	}
	for _, k := range []int{1, 2, 3, 5, 8, 16, 33, 128} {
		for _, scale := range []float64{1e-4, 1e-2, 1, 30, 300} {
			rng := rand.New(rand.NewSource(int64(k)*1000 + int64(scale*100)))
			A, B := NewHalfMatrix(k, 68), NewHalfMatrix(k, 27) // native row and column tails
			for _, h := range []*HalfMatrix{A, B} {
				for i := range h.Data {
					h.Data[i] = half.FromFloat32(float32(rng.NormFloat64() * scale))
				}
			}
			run(A, B, true, fmt.Sprintf("k=%d scale=%g", k, scale))
		}
		for seed := 0; seed < 3; seed++ {
			rng := rand.New(rand.NewSource(int64(k)*100 + int64(seed)))
			A, B := NewHalfMatrix(k, 68), NewHalfMatrix(k, 24)
			for _, h := range []*HalfMatrix{A, B} {
				for i := range h.Data {
					h.Data[i] = half.FromBits(uint16(rng.Uint32()))
				}
			}
			run(A, B, false, fmt.Sprintf("k=%d bit patterns seed=%d", k, seed))
		}
	}
	if subnormal == 0 || inf == 0 || nan == 0 {
		t.Fatalf("outputs: %d subnormal, %d ±Inf, %d NaN; every class must occur", subnormal, inf, nan)
	}
	t.Logf("tiers agree; outputs covered %d subnormal, %d ±Inf, %d NaN", subnormal, inf, nan)
}

// TestNativeAddIsDoubleRounded pins the exactness argument behind the
// AVX512-FP16 tier where it is tightest, the add, at k = 2 through the real
// kernel: A = (d, 1) and B = (1, p), so the first step sets the accumulator
// to d, every one of the 2^16 binary16 values (−0 and signalling NaNs
// canonicalised the way the chain does it), and the second adds p, drawn
// from 1,024 patterns spread across the encoding plus every special. VADDPH's
// one rounding must equal round16(round32(d+p)), the F16C and portable
// chain. A NaN's payload is propagation, not rounding (the reference
// canonicalises it; TestHGemmTiersMatch pins the asm tiers' payloads
// against each other), so where the reference is NaN the sweep demands a
// NaN.
func TestNativeAddIsDoubleRounded(t *testing.T) {
	if !useFP16 {
		t.Skip("no AVX512-FP16 tier on this host/build")
	}
	var ps []half.Float16
	for j := 0; j < 1024; j++ {
		ps = append(ps, half.FromBits(uint16(j*64+37)))
	}
	for _, s := range []uint16{0x0000, 0x0001, 0x03FF, 0x0400, 0x3BFF, 0x3C00, 0x3C01, 0x7BFF, 0x7C00, 0x7C01, 0x7E00, 0x7FFF} {
		ps = append(ps, half.FromBits(s), half.FromBits(s|0x8000))
	}
	one := half.FromFloat32(1)
	B := NewHalfMatrix(2, len(ps))
	pw := make([]float32, len(ps))
	for j, p := range ps {
		B.Data[2*j], B.Data[2*j+1] = one, p
		pw[j] = roundHalf(p.Float32())
	}
	const chunk = 2048
	A := NewHalfMatrix(2, chunk)
	C := NewMatrix(chunk, len(ps))
	ds := make([]float32, chunk)
	for base := 0; base < 1<<16; base += chunk {
		for i := range ds {
			d := half.FromBits(uint16(base + i))
			A.Data[2*i], A.Data[2*i+1] = d, one
			ds[i] = roundHalf(0 + roundHalf(d.Float32()))
		}
		hgemmNative(1, A, chunk, wholeOperand, B, C)
		for j, p := range pw {
			for i, got := range C.Col(j) {
				want := roundHalf(ds[i] + p)
				if math.Float32bits(got) == math.Float32bits(want) || got != got && want != want {
					continue
				}
				t.Fatalf("d=%#04x p=%#04x: VADDPH %#08x, round16(round32(d+p)) %#08x",
					base+i, ps[j].Bits(), math.Float32bits(got), math.Float32bits(want))
			}
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
		src[i] = half.FromBits(uint16(i))
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

// FuzzHGemmTiers is TestHGemmTiersMatch over every input: HGemmTNBlocks on
// the host's tier (AVX512-FP16 for AccumFP16 where present, else F16C, else
// portable) against HGemmTNPortable over all of A, in process and bit for
// bit, the gathered rows against their rows of the whole product. shape
// picks the block width (1…128, bits 0–6), the block count (1…8, 7–9), n
// (1…64, 10–15), k (0…128, 16–23), AccumFP32 rather than AccumFP16 (24),
// GOMAXPROCS 4 rather than 1 (25) and a gapped block list (26) over A's
// one and a half times as many blocks; data draws the operands element by
// element (fuzzBytes.half) and the gaps. A NaN output matches any NaN: the
// portable kernel canonicalises payloads through half.Round, and
// TestHGemmTiersMatch pins the asm tiers' payloads against each other.
// The seed corpus under testdata/fuzz is that test's shapes, and k = 0.
func FuzzHGemmTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		width, nblocks := 1+int(shape&127), 1+int(shape>>7&7)
		n, k := 1+int(shape>>10&63), int(shape>>16&255)%129
		mode := AccumMode(shape >> 24 & 1)
		procs := 1 + 3*int(shape>>25&1)
		total := nblocks + nblocks/2
		fb := &fuzzBytes{data: data}
		A, B := NewHalfMatrix(k, total*width), NewHalfMatrix(k, n)
		for _, h := range []*HalfMatrix{A, B} {
			for i := range h.Data {
				h.Data[i] = fb.half()
			}
		}
		var blocks []int32
		for blk := 0; blk < total && shape>>26&1 != 0 && len(blocks) < nblocks; blk++ {
			if fb.next()%3 != 0 || total-blk == nblocks-len(blocks) {
				blocks = append(blocks, int32(blk))
			}
		}
		rows := A.Cols
		if blocks != nil {
			rows = len(blocks) * width
		}
		want, got := NewMatrix(A.Cols, n), NewMatrix(rows, n)
		HGemmTNPortable(-2, A, B, mode, want)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		HGemmTNBlocks(-2, A, width, blocks, B, mode, got, nil)
		for j := 0; j < n; j++ {
			for i, g := range got.Col(j) {
				wi := i
				if blocks != nil {
					wi = int(blocks[i/width])*width + i%width
				}
				w := want.Col(j)[wi]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%v width=%d blocks=%v n=%d k=%d GOMAXPROCS=%d: C[%d,%d] = %#08x, portable %#08x",
						mode, width, blocks, n, k, procs, i, j, math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
	})
}
