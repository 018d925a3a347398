package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestTop2AddRowsSemantics writes down, one row per rule, the selection
// Top2AddRows performs and every GemmTop2 tier must reproduce bit for bit.
// Each case is one column scanned over rows [lo, hi); the index is the row
// offset from lo.
func TestTop2AddRowsSemantics(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	const max = math.MaxFloat32
	for _, tc := range []struct {
		rule       string
		col, norms []float32
		lo, hi     int
		best, sec  float32
		idx        int32
	}{
		{"comparison is strict <", []float32{5, 3, 4, 3}, nil, 0, 4, 3, 3, 1},
		{"the lowest index wins a tie for best", []float32{7, 1, 1, 1}, nil, 0, 4, 1, 1, 1},
		{"a value equal to best becomes second", []float32{2, 5, 2}, nil, 0, 3, 2, 2, 0},
		{"NaN is never selected", []float32{nan, 3, nan, 1, nan}, nil, 0, 5, 1, 3, 3},
		{"an empty block gives the start state", []float32{1, 2}, nil, 1, 1, max, max, -1},
		{"an all-NaN block gives the start state", []float32{nan, nan, 1}, nil, 0, 2, max, max, -1},
		{"+Inf is handled like any other value", []float32{inf, -inf, 7, inf}, nil, 0, 4, -inf, 7, 1},
		{"+Inf never beats the MaxFloat32 start", []float32{inf, inf}, nil, 0, 2, max, max, -1},
		{"-0 and +0 compare equal: +0 first", []float32{0, negZero}, nil, 0, 2, 0, negZero, 0},
		{"-0 and +0 compare equal: -0 first", []float32{negZero, 0}, nil, 0, 2, negZero, 0, 0},
		{"norms are added before the comparison", []float32{1, 2, 3}, []float32{5, 0, 9}, 0, 3, 2, 6, 1},
		{"the index is the offset from lo", []float32{0, 9, 8, 7}, nil, 1, 4, 7, 8, 2},
	} {
		C := FromColumns(len(tc.col), [][]float32{tc.col})
		best, second, idx := make([]float32, 1), make([]float32, 1), make([]int32, 1)
		Top2AddRows(C, tc.norms, tc.lo, tc.hi, best, second, idx)
		if math.Float32bits(best[0]) != math.Float32bits(tc.best) ||
			math.Float32bits(second[0]) != math.Float32bits(tc.sec) || idx[0] != tc.idx {
			t.Errorf("%s: got (%v, %v, %d), want (%v, %v, %d)", tc.rule,
				best[0], second[0], idx[0], tc.best, tc.sec, tc.idx)
		}
	}
}

// TestGemmTop2TiersMatch runs GemmTop2's native AVX-512 tier against its
// fallback — GemmTN + Top2AddRows, the oracle — in-process and demands the
// same bits in every best, second and index. The shapes sweep block widths
// 1…17 and 383…385 (short row tiles), 1…9 blocks with non-contiguous slot
// lists, 1, 31, 33, 767 and 3072 query columns (short panels), k ∈ {1, 2,
// 3, 5, 8, 33, 128}, alpha −2 and −1.3, with and without norms, at
// GOMAXPROCS 1 and 4. The
// operands mix small integers with duplicated reference columns (exact
// ties), ±Inf, −0 and NaN payloads. Every product runs on B packed once
// (Panel), unmasked and under needMasks' masks, and every needed cell must
// be the oracle's bits. Skips where the host lacks the tier.
func TestGemmTop2TiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 tier on this host/build")
	}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 383, 384, 385}
	ks := []int{1, 2, 3, 5, 8, 33, 128}
	ns := []int{1, 31, 33, 767, 3072}
	var ties, special, cells int
	run := func(rng *rand.Rand, alpha float32, width, nblocks, n, k int, withNorms bool, what string) {
		t.Helper()
		total := nblocks + nblocks/2 // room for gaps in the slot list
		A, B := randomOperand(rng, k, total*width), randomOperand(rng, k, n)
		ties += tieColumns(rng, total, width, func(dst, src int) { copy(A.Col(dst), A.Col(src)) })
		norms := randomNorms(rng, A.Cols, withNorms)
		// Every block of A, then an ascending slot list with gaps.
		for _, blocks := range [][]int32{nil, randomSlots(rng, total, nblocks)} {
			nb := numBlocks(A.Cols, width, blocks)
			want := newTop2Out(nb * n)
			gemmTop2Fallback(alpha, A, width, blocks, B, norms, want.best, want.second, want.idx, new(Matrix))
			pk := new(Panel)
			pk.Pack(B)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				for _, need := range append([]Need{{}}, needMasks(rng, nb, n)...) {
					got := newTop2Out(nb * n)
					GemmTop2(alpha, A, width, blocks, B, pk, need, norms, got.best, got.second, got.idx, nil)
					if i, ok := got.sameNeeded(want, need, n); !ok {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("%s blocks=%v %v GOMAXPROCS=%d: block %d column %d: native (%x, %x, %d), oracle (%x, %x, %d)",
							what, blocks, need, procs, i/n, i%n,
							math.Float32bits(got.best[i]), math.Float32bits(got.second[i]), got.idx[i],
							math.Float32bits(want.best[i]), math.Float32bits(want.second[i]), want.idx[i])
					}
				}
				runtime.GOMAXPROCS(prev)
			}
			for _, v := range want.best {
				if v != v || math.IsInf(float64(v), 0) || v == 0 && math.Signbit(float64(v)) {
					special++
				}
			}
			cells += len(want.best)
		}
	}
	for i, width := range widths {
		for c := 0; c < 3; c++ {
			rng := rand.New(rand.NewSource(int64(i*10 + c)))
			k, n := ks[(i+c)%len(ks)], ns[(i+2*c)%len(ns)]
			if width > 100 && n > 100 {
				k = min(k, 8) // keep the 385×9×3072 oracle GEMMs quick
			}
			nblocks := 1 + (i+c)%9
			// -2 is Algorithm 2's scale and exact; -1.3 rounds, so an FMA
			// in place of the epilogue's two roundings shows.
			alpha := []float32{-2, -1.3}[c%2]
			run(rng, alpha, width, nblocks, n, k, (i+c)%2 == 0,
				fmt.Sprintf("alpha=%g width=%d nblocks=%d n=%d k=%d norms=%v", alpha, width, nblocks, n, k, (i+c)%2 == 0))
		}
	}
	if special == 0 {
		t.Fatal("no NaN, ±Inf or −0 ever reached a best value")
	}
	t.Logf("tiers agree on %d cells; %d duplicated reference columns, %d NaN/±Inf/−0 best values", cells, ties, special)
}

// tieColumns duplicates reference columns within each of total
// width-column blocks through cp(dst, src), so exact ties occur, and
// returns how many it copied.
func tieColumns(rng *rand.Rand, total, width int, cp func(dst, src int)) int {
	ties := 0
	for blk := 0; blk < total; blk++ {
		for r := 1; r < width; r += 3 {
			cp(blk*width+r, blk*width+rng.Intn(r))
			ties++
		}
	}
	return ties
}

// randomNorms is nil without norms, else cols small integers and −0s.
func randomNorms(rng *rand.Rand, cols int, withNorms bool) []float32 {
	if !withNorms {
		return nil
	}
	norms := make([]float32, cols)
	for i := range norms {
		norms[i] = float32(rng.Intn(5))
		if rng.Intn(4) == 0 {
			// v = -0 + -0 keeps v's sign: ±0 values then tie.
			norms[i] = float32(math.Copysign(0, -1))
		}
	}
	return norms
}

// randomSlots is an ascending list of nblocks of the total blocks, with
// gaps.
func randomSlots(rng *rand.Rand, total, nblocks int) []int32 {
	var slots []int32
	for blk := 0; blk < total && len(slots) < nblocks; blk++ {
		if rng.Intn(3) != 0 || total-blk == nblocks-len(slots) {
			slots = append(slots, int32(blk))
		}
	}
	return slots
}

// randomOperand fills a rows×cols matrix mostly with small integers, so
// dot products collide, plus −0s and Gaussians; one column in eight also
// gets a ±Inf or a NaN with a random payload and sign, so special values
// reach some dot products without poisoning all of them.
func randomOperand(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch x := rng.Intn(10); {
		case x < 2:
			m.Data[i] = float32(math.Copysign(0, -1))
		case x < 7:
			m.Data[i] = float32(rng.Intn(5) - 2)
		default:
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	for j := 0; j < cols; j++ {
		if rng.Intn(8) != 0 {
			continue
		}
		col := m.Col(j)
		if rng.Intn(2) == 0 {
			col[rng.Intn(rows)] = float32(math.Inf(1 - 2*rng.Intn(2)))
		} else {
			col[rng.Intn(rows)] = math.Float32frombits(0x7F800001 | rng.Uint32()&0x803FFFFF) // NaN
		}
	}
	return m
}

type top2Out struct {
	best, second []float32
	idx          []int32
}

func newTop2Out(n int) top2Out {
	return top2Out{make([]float32, n), make([]float32, n), make([]int32, n)}
}

// same reports the first entry where o and w differ in any bit.
func (o top2Out) same(w top2Out) (int, bool) {
	return o.sameIn(w, 0, len(o.best))
}

// sameIn reports the first entry of [lo, hi) where o and w differ in any
// bit.
func (o top2Out) sameIn(w top2Out, lo, hi int) (int, bool) {
	for i := lo; i < hi; i++ {
		if math.Float32bits(o.best[i]) != math.Float32bits(w.best[i]) ||
			math.Float32bits(o.second[i]) != math.Float32bits(w.second[i]) || o.idx[i] != w.idx[i] {
			return i, false
		}
	}
	return 0, true
}

// sameNeeded is same over the entries need names, of results n columns
// wide: block bi's columns of query q where need.Cells[bi·nq + q]. The
// zero Need names every entry.
func (o top2Out) sameNeeded(w top2Out, need Need, n int) (int, bool) {
	if need.Cells == nil {
		return o.same(w)
	}
	nq := n / need.Cols
	for cell, read := range need.Cells {
		if lo := cell/nq*n + cell%nq*need.Cols; read {
			if i, ok := o.sameIn(w, lo, lo+need.Cols); !ok {
				return i, false
			}
		}
	}
	return 0, true
}

// needMasks are the masks a tier test reruns a product of nb blocks and n
// query columns under: no cell needed, every cell, and a random third of
// them. The columns split into queries at n's smallest divisor above 1
// (n itself when prime), so 33 columns are three queries of 11 and 31 are
// 31 of one, and a 32-column panel then straddles queries.
func needMasks(rng *rand.Rand, nb, n int) []Need {
	nq := 2
	for n%nq != 0 && nq < n {
		nq++
	}
	nq = min(nq, n)
	empty, full, random := make([]bool, nb*nq), make([]bool, nb*nq), make([]bool, nb*nq)
	for i := range full {
		full[i], random[i] = true, rng.Intn(3) == 0
	}
	return []Need{{n / nq, empty}, {n / nq, full}, {n / nq, random}}
}

// need draws the mask a fuzzed shape names for nb blocks: none, no cell,
// every cell, or cells data picks.
func (s top2Shape) need(fb *fuzzBytes, nb int) Need {
	if s.needKind == 0 {
		return Need{}
	}
	cells := make([]bool, nb*s.nq)
	for i := range cells {
		cells[i] = s.needKind == 2 || s.needKind == 3 && fb.next()&1 != 0
	}
	return Need{Cols: s.n / s.nq, Cells: cells}
}

// FuzzGemmTop2Tiers is TestGemmTop2TiersMatch over every input: GemmTop2 on
// the host's tier (AVX-512 where present) against gemmTop2Fallback, in
// process and bit for bit. shape is decoded by top2Shape (inv and mode
// unused); data draws the operands and norms element by element
// (fuzzBytes.f32), which reference columns duplicate an earlier one of
// their block, the gaps of the slot list and the cells of a random need
// mask. Only the cells the mask needs are compared. The seed corpus under
// testdata/fuzz is the table test's shapes, k = 0 and masked shapes. On a
// host without the tier both sides are the fallback.
func FuzzGemmTop2Tiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		s := decodeTop2Shape(shape)
		fb := &fuzzBytes{data: data}
		A, B := NewMatrix(s.k, s.total()*s.width), NewMatrix(s.k, s.n)
		drawOperands(fb, A.Data, A.Cols, B.Data, s.k, s.width, fb.f32)
		var norms []float32
		if s.norms {
			norms = make([]float32, A.Cols)
			for i := range norms {
				norms[i] = fb.f32()
			}
		}
		blocks := s.slots(fb)
		nb, n := numBlocks(A.Cols, s.width, blocks), s.n
		need := s.need(fb, nb)
		pk := new(Panel)
		pk.Pack(B)
		want, got := newTop2Out(nb*n), newTop2Out(nb*n)
		gemmTop2Fallback(s.alpha, A, s.width, blocks, B, norms, want.best, want.second, want.idx, new(Matrix))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
		GemmTop2(s.alpha, A, s.width, blocks, B, pk, need, norms, got.best, got.second, got.idx, nil)
		if i, ok := got.sameNeeded(want, need, n); !ok {
			t.Fatalf("%v blocks=%v GOMAXPROCS=%d: block %d column %d: native (%x, %x, %d), oracle (%x, %x, %d)",
				s, blocks, s.procs, i/n, i%n,
				math.Float32bits(got.best[i]), math.Float32bits(got.second[i]), got.idx[i],
				math.Float32bits(want.best[i]), math.Float32bits(want.second[i]), want.idx[i])
		}
	})
}
