package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/half"
)

// TestHGemmTop2TiersMatch runs HGemmTop2's native AVX512-FP16 tier against
// its fallback — HGemmTNBlocks, the unscale and Top2AddRows, the oracle —
// in-process and demands the same bits in every best, second and index.
// The shapes are TestGemmTop2TiersMatch's: block widths 1…17 and 383…385,
// 1…9 blocks with gapped slot lists, 1, 31, 33, 767 and 3072 query
// columns, k ∈ {1, 2, 3, 5, 8, 33, 128}, with and without norms, at
// GOMAXPROCS 1 and 4; alpha is −2 or −1.3 and inv 1, 2^14 or 1.7, so a
// fused multiply in place of the epilogue's three roundings shows. The
// operands mix small integers with duplicated reference columns (exact
// ties), −0, ±Inf and NaN payloads, at value scales 1, 30 and 300, so the
// binary16 accumulators overflow too. Every product runs on B packed once
// (Panel), unmasked and under needMasks' masks, and every needed cell must
// be the oracle's bits. Skips where the host lacks the tier.
func TestHGemmTop2TiersMatch(t *testing.T) {
	if !Top2Fused(true, AccumFP16) {
		t.Skip("no AVX512-FP16 tier on this host/build")
	}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 383, 384, 385}
	ks := []int{1, 2, 3, 5, 8, 33, 128}
	ns := []int{1, 31, 33, 767, 3072}
	var ties, special, cells int
	for i, width := range widths {
		for c := 0; c < 3; c++ {
			rng := rand.New(rand.NewSource(int64(i*10 + c)))
			k, n := ks[(i+c)%len(ks)], ns[(i+2*c)%len(ns)]
			if width > 100 && n > 100 {
				k = min(k, 8)
			}
			nblocks := 1 + (i+c)%9
			alpha := []float32{-2, -1.3}[c%2]
			inv := []float32{1, 16384, 1.7}[(i+c)%3]
			scale := []float64{1, 30, 300}[(i+2*c)%3]
			withNorms := (i+c)%2 == 0
			what := fmt.Sprintf("alpha=%g inv=%g scale=%g width=%d nblocks=%d n=%d k=%d norms=%v",
				alpha, inv, scale, width, nblocks, n, k, withNorms)

			total := nblocks + nblocks/2
			A, B := randomHalfOperand(rng, k, total*width, scale), randomHalfOperand(rng, k, n, scale)
			ties += tieColumns(rng, total, width, func(dst, src int) { copy(A.Col(dst), A.Col(src)) })
			norms := randomNorms(rng, A.Cols, withNorms)
			pk := new(Panel)
			pk.PackHalf(B)
			for _, blocks := range [][]int32{nil, randomSlots(rng, total, nblocks)} {
				for _, procs := range []int{1, 4} {
					want := checkHGemmTop2(t, procs, alpha, inv, A, width, blocks, B, pk, Need{}, AccumFP16, norms, what)
					for _, need := range needMasks(rng, len(want.best)/n, n) {
						checkHGemmTop2(t, procs, alpha, inv, A, width, blocks, B, pk, need, AccumFP16, norms, what)
					}
					for _, v := range want.best {
						if math.IsInf(float64(v), 0) || v == 0 && math.Signbit(float64(v)) {
							special++
						}
					}
					cells += len(want.best)
				}
			}
		}
	}
	if special == 0 {
		t.Fatal("no ±Inf or −0 ever reached a best value")
	}
	t.Logf("tiers agree on %d cells; %d duplicated reference columns, %d ±Inf/−0 best values", cells, ties, special)
}

// checkHGemmTop2 runs HGemmTop2 on the host's tier at GOMAXPROCS procs,
// on B packed in pk under need, and its fallback, fails t at the first
// needed cell where they differ in any bit, and returns the fallback's
// answer.
func checkHGemmTop2(t *testing.T, procs int, alpha, inv float32, A *HalfMatrix, width int, blocks []int32, B *HalfMatrix, pk *Panel, need Need, mode AccumMode, norms []float32, what string) top2Out {
	t.Helper()
	n := B.Cols
	nb := numBlocks(A.Cols, width, blocks)
	want := newTop2Out(nb * n)
	hgemmTop2Fallback(alpha, inv, A, width, blocks, B, mode, norms, want.best, want.second, want.idx, new(Matrix), nil)
	got := newTop2Out(nb * n)
	prev := runtime.GOMAXPROCS(procs)
	HGemmTop2(alpha, inv, A, width, blocks, B, pk, need, mode, norms, got.best, got.second, got.idx, nil, nil)
	runtime.GOMAXPROCS(prev)
	if i, ok := got.sameNeeded(want, need, n); !ok {
		t.Fatalf("%s %v blocks=%v %v GOMAXPROCS=%d: block %d column %d: native (%x, %x, %d), oracle (%x, %x, %d)",
			what, mode, blocks, need, procs, i/n, i%n,
			math.Float32bits(got.best[i]), math.Float32bits(got.second[i]), got.idx[i],
			math.Float32bits(want.best[i]), math.Float32bits(want.second[i]), want.idx[i])
	}
	return want
}

// randomHalfOperand is randomOperand in binary16, Gaussians times scale:
// small integers, −0s and Gaussians, and in one column in eight a ±Inf or
// a NaN with a random payload and sign.
func randomHalfOperand(rng *rand.Rand, rows, cols int, scale float64) *HalfMatrix {
	m := NewHalfMatrix(rows, cols)
	for i := range m.Data {
		switch x := rng.Intn(10); {
		case x < 2:
			m.Data[i] = half.FromBits(0x8000)
		case x < 7:
			m.Data[i] = half.FromFloat32(float32(rng.Intn(5) - 2))
		default:
			m.Data[i] = half.FromFloat32(float32(rng.NormFloat64() * scale))
		}
	}
	for j := 0; j < cols; j++ {
		if rng.Intn(8) != 0 {
			continue
		}
		col := m.Col(j)
		if rng.Intn(2) == 0 {
			col[rng.Intn(rows)] = half.FromBits(0x7C00 | uint16(rng.Intn(2))<<15) // ±Inf
		} else {
			col[rng.Intn(rows)] = half.FromBits(0x7C01 | uint16(rng.Uint32())&0x83FF) // NaN
		}
	}
	return m
}

// FuzzHGemmTop2Tiers is TestHGemmTop2TiersMatch over every input: HGemmTop2
// on the host's tier against hgemmTop2Fallback, in process and bit for bit.
// shape is decoded by top2Shape (inv and mode included); data draws the operands
// and norms element by element (fuzzBytes.half) and which reference
// columns duplicate an earlier one of their block, the gaps of the slot
// list and the cells of a random need mask. Only the cells the mask needs
// are compared. The seed corpus under testdata/fuzz is the table test's
// shapes, k = 0, AccumFP32 and masked shapes. On a host without the tier
// both sides are the fallback.
func FuzzHGemmTop2Tiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		s := decodeTop2Shape(shape)
		fb := &fuzzBytes{data: data}
		A, B := NewHalfMatrix(s.k, s.total()*s.width), NewHalfMatrix(s.k, s.n)
		drawOperands(fb, A.Data, A.Cols, B.Data, s.k, s.width, fb.half)
		var norms []float32
		if s.norms {
			norms = make([]float32, A.Cols)
			for i := range norms {
				norms[i] = fb.half().Float32()
			}
		}
		blocks := s.slots(fb)
		pk := new(Panel)
		pk.PackHalf(B)
		need := s.need(fb, numBlocks(A.Cols, s.width, blocks))
		checkHGemmTop2(t, s.procs, s.alpha, s.inv, A, s.width, blocks, B, pk, need, s.mode, norms, s.String())
	})
}

// top2Shape is a GEMM + top-2 fuzz input's shape, decoded from the bits of
// shape: block width 1…512 (bits 0–8), 1…9 blocks (9–12), n 1…4096 query
// columns (13–24) and k 0…128 (25–32), then a flag each for norms (33), a
// gapped slot list (34), GOMAXPROCS 4 rather than 1 (35) and alpha −1.3
// rather than −2 (36), and, FP16 only, inv 1, 2^14 or 1.7 (37–38) and
// AccumFP32 rather than AccumFP16 (39). Bits 40–41 pick the need mask:
// none, no cell, every cell, or cells drawn from data; a masked shape
// splits its columns into 1…4 queries (42–43), n rounded down (up, below
// the query count) to a multiple of them; higher bits are ignored. k
// shrinks until the GEMM is at most 2^27 multiply-adds, so one input runs
// in milliseconds.
type top2Shape struct {
	width, nblocks, n, k, procs int
	norms, gapped               bool
	alpha, inv                  float32
	mode                        AccumMode
	needKind, nq                int
}

func decodeTop2Shape(shape uint64) top2Shape {
	s := top2Shape{
		width:    1 + int(shape%512),
		nblocks:  1 + int(shape>>9&15)%9,
		n:        1 + int(shape>>13&4095),
		k:        int(shape>>25&255) % 129,
		norms:    shape>>33&1 != 0,
		gapped:   shape>>34&1 != 0,
		procs:    1 + 3*int(shape>>35&1),
		alpha:    []float32{-2, -1.3}[shape>>36&1],
		inv:      []float32{1, 16384, 1.7, 1}[shape>>37&3],
		mode:     AccumMode(shape >> 39 & 1),
		needKind: int(shape >> 40 & 3),
		nq:       1 + int(shape>>42&3),
	}
	if s.needKind != 0 {
		s.n = max(1, s.n/s.nq) * s.nq
	}
	for s.k > 1 && s.total()*s.width*s.n*s.k > 1<<27 {
		s.k /= 2
	}
	return s
}

// total is the number of blocks in A: room for gaps in the slot list.
func (s top2Shape) total() int { return s.nblocks + s.nblocks/2 }

// slots is nil (every block) unless the shape is gapped; then it is an
// ascending list of nblocks of the total blocks, data choosing the gaps.
func (s top2Shape) slots(fb *fuzzBytes) []int32 {
	if !s.gapped {
		return nil
	}
	var slots []int32
	for blk, total := 0, s.total(); blk < total && len(slots) < s.nblocks; blk++ {
		if fb.next()%3 != 0 || total-blk == s.nblocks-len(slots) {
			slots = append(slots, int32(blk))
		}
	}
	return slots
}

func (s top2Shape) String() string {
	return fmt.Sprintf("width=%d nblocks=%d gapped=%v n=%d k=%d norms=%v alpha=%g inv=%g need=%d queries=%d",
		s.width, s.nblocks, s.gapped, s.n, s.k, s.norms, s.alpha, s.inv, s.needKind, s.nq)
}

// drawOperands fills the cols k-element columns of a, width to a block,
// and then all of b with draw, except that a column past the first of its
// block is, when data says so, a copy of an earlier column of the block:
// exact ties.
func drawOperands[T any](fb *fuzzBytes, a []T, cols int, b []T, k, width int, draw func() T) {
	for j := 0; j < cols; j++ {
		col := a[j*k : (j+1)*k]
		if r := j % width; r > 0 && fb.next()%4 == 0 {
			copy(col, a[(j-1-int(fb.next())%r)*k:])
			continue
		}
		for i := range col {
			col[i] = draw()
		}
	}
	for i := range b {
		b[i] = draw()
	}
}

// fuzzBytes hands out a fuzz input's bytes in order, wrapping around when
// they run out; no bytes read as zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return b
}

// half draws one binary16 value: its kind byte picks +0, −0, ±Inf, a NaN
// with a drawn payload and sign, a literal bit pattern (two more bytes),
// or a small integer −2…2.
func (f *fuzzBytes) half() half.Float16 {
	b := f.next()
	sign := uint16(b&0x80) << 8
	switch b % 8 {
	case 0:
		return half.FromBits(0)
	case 1:
		return half.FromBits(0x8000)
	case 2:
		return half.FromBits(0x7C00 | sign)
	case 3:
		return half.FromBits(0x7C01 | sign | uint16(f.next())<<2&0x3FF)
	case 4:
		return half.FromBits(uint16(f.next()) | uint16(f.next())<<8)
	}
	return half.FromFloat32(float32(int(b>>3)%5 - 2))
}

// f32 draws one float32 value: its kind byte picks +0, −0, ±Inf, a NaN
// with a drawn payload and sign, a literal bit pattern (four more bytes),
// or a small integer −2…2.
func (f *fuzzBytes) f32() float32 {
	b := f.next()
	sign := uint32(b&0x80) << 24
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return math.Float32frombits(0x80000000)
	case 2:
		return math.Float32frombits(0x7F800000 | sign)
	case 3:
		return math.Float32frombits(0x7F800001 | sign | uint32(f.next())<<14)
	case 4:
		return math.Float32frombits(uint32(f.next()) | uint32(f.next())<<8 | uint32(f.next())<<16 | uint32(f.next())<<24)
	}
	return float32(int(b>>3)%5 - 2)
}
