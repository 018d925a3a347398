package knn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/half"
	"texid/internal/sift"
)

// MatchBatch is MatchBatchScratch with a fresh Scratch: the one-query,
// whole-batch match the tests hold every other shape to.
func MatchBatch(stream *gpusim.Stream, rb *RefBatch, q *Query, opts Options) ([]Pair2NN, error) {
	return MatchBatchScratch(stream, rb, q, opts, nil)
}

func randomFeatures(rng *rand.Rand, d, n int, norm float64) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var s float64
		for i := range col {
			col[i] = rng.Float32()
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(norm / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return m
}

// rootSIFTFeatures returns unit-norm non-negative features (the RootSIFT
// invariant).
func rootSIFTFeatures(rng *rand.Rand, d, n int) *blas.Matrix {
	m := randomFeatures(rng, d, n, 512)
	sift.ApplyRootSIFT(m)
	return m
}

func newTestDevice() *gpusim.Device { return gpusim.NewDevice(gpusim.TeslaP100()) }

func TestAllAlgorithmsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, m, n := 32, 40, 24
	dev := newTestDevice()
	stream := dev.NewStream()

	refs := []*blas.Matrix{rootSIFTFeatures(rng, d, m), rootSIFTFeatures(rng, d, m)}
	qm := rootSIFTFeatures(rng, d, n)
	q, err := NewQuery(dev, qm, gpusim.FP32, 1)
	if err != nil {
		t.Fatal(err)
	}

	oracle := []Pair2NN{bruteForce2NN(0, refs[0], qm), bruteForce2NN(1, refs[1], qm)}

	for _, algo := range []Algorithm{Baseline, Garcia, Eq1Top2, RootSIFT} {
		rb, err := NewRefBatch(dev, []int{0, 1}, refs, gpusim.FP32, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatchBatch(stream, rb, q, Options{Algorithm: algo, Precision: gpusim.FP32})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%v: %d results", algo, len(got))
		}
		for b := range got {
			for j := 0; j < n; j++ {
				if got[b].BestIdx[j] != oracle[b].BestIdx[j] {
					t.Errorf("%v ref %d query %d: best idx %d, want %d",
						algo, b, j, got[b].BestIdx[j], oracle[b].BestIdx[j])
				}
				if diff := math.Abs(float64(got[b].Best[j] - oracle[b].Best[j])); diff > 2e-3 {
					t.Errorf("%v ref %d query %d: best %g, want %g",
						algo, b, j, got[b].Best[j], oracle[b].Best[j])
				}
				if diff := math.Abs(float64(got[b].Second[j] - oracle[b].Second[j])); diff > 2e-3 {
					t.Errorf("%v ref %d query %d: second %g, want %g",
						algo, b, j, got[b].Second[j], oracle[b].Second[j])
				}
			}
		}
		rb.Free()
	}
}

func TestFP16MatchesFP32Closely(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d, m, n := 128, 64, 32
	dev := newTestDevice()
	stream := dev.NewStream()

	refs := []*blas.Matrix{rootSIFTFeatures(rng, d, m)}
	qm := rootSIFTFeatures(rng, d, n)
	q, _ := NewQuery(dev, qm, gpusim.FP16, 1)
	oracle := bruteForce2NN(0, refs[0], qm)

	rb, err := NewRefBatch(dev, []int{0}, refs, gpusim.FP16, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Overflow != 0 {
		t.Fatalf("RootSIFT features overflowed FP16: %d", rb.Overflow)
	}
	got, err := MatchBatch(stream, rb, q, Options{
		Algorithm: RootSIFT, Precision: gpusim.FP16, Scale: 1, Accum: blas.AccumFP16,
	})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for j := 0; j < n; j++ {
		if got[0].BestIdx[j] == oracle.BestIdx[j] {
			agree++
		}
		if diff := math.Abs(float64(got[0].Best[j] - oracle.Best[j])); diff > 0.05 {
			t.Errorf("query %d: FP16 best %g vs FP32 %g", j, got[0].Best[j], oracle.Best[j])
		}
	}
	if agree < n*9/10 {
		t.Fatalf("FP16 nearest-neighbor agreement only %d/%d", agree, n)
	}
}

func TestFP16ScaledEq1Matches(t *testing.T) {
	// Algorithm 1 in FP16 with the production scale factor 2^-7 on
	// norm-512 SIFT-convention features must agree with brute force.
	rng := rand.New(rand.NewSource(3))
	d, m, n := 128, 48, 24
	dev := newTestDevice()
	stream := dev.NewStream()

	refs := []*blas.Matrix{randomFeatures(rng, d, m, 512)}
	qm := randomFeatures(rng, d, n, 512)
	scale := half.PowerOfTwoScale(-7)
	q, _ := NewQuery(dev, qm, gpusim.FP16, scale)
	oracle := bruteForce2NN(0, refs[0], qm)

	rb, err := NewRefBatch(dev, []int{0}, refs, gpusim.FP16, scale, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatchBatch(stream, rb, q, Options{
		Algorithm: Eq1Top2, Precision: gpusim.FP16, Scale: scale, Accum: blas.AccumFP16,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		rel := math.Abs(float64(got[0].Best[j]-oracle.Best[j])) / float64(oracle.Best[j])
		if rel > 0.02 {
			t.Errorf("query %d: scaled FP16 distance off by %.2f%%", j, rel*100)
		}
	}
}

func TestUnscaledSIFTOverflows(t *testing.T) {
	// Norm-512 features without scaling overflow the FP16 accumulator —
	// Table 2's "overflow" rows.
	rng := rand.New(rand.NewSource(4))
	d, m, n := 128, 16, 8
	dev := newTestDevice()
	stream := dev.NewStream()

	refs := []*blas.Matrix{randomFeatures(rng, d, m, 512)}
	qm := randomFeatures(rng, d, n, 512)
	q, _ := NewQuery(dev, qm, gpusim.FP16, 1)
	rb, _ := NewRefBatch(dev, []int{0}, refs, gpusim.FP16, 1, true)
	got, err := MatchBatch(stream, rb, q, Options{
		Algorithm: Eq1Top2, Precision: gpusim.FP16, Scale: 1, Accum: blas.AccumFP16,
	})
	if err != nil {
		t.Fatal(err)
	}
	overflowed := false
	for j := 0; j < n; j++ {
		if math.IsInf(float64(got[0].Best[j]), 1) {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("expected FP16 accumulation overflow with unscaled norm-512 features")
	}
}

func TestBatchEqualsSequential(t *testing.T) {
	// Batching is a pure throughput optimization: per-reference results
	// must be identical to one-at-a-time matching, whatever batch a
	// reference lands in. The cases are the search paths the accuracy
	// tables run: RootSIFT, and Algorithm 1 with norms on raw (norm-512)
	// features, each in FP32 and in FP16 at a power-of-two scale.
	fp16Scale := half.PowerOfTwoScale(-7)
	for _, tc := range []struct {
		alg   Algorithm
		prec  gpusim.Precision
		scale float32
	}{
		{RootSIFT, gpusim.FP32, 1},
		{RootSIFT, gpusim.FP16, fp16Scale},
		{Eq1Top2, gpusim.FP32, 1},
		{Eq1Top2, gpusim.FP16, fp16Scale},
	} {
		t.Run(fmt.Sprintf("%v/%v", tc.alg, tc.prec), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			d, m, n, B := 16, 20, 12, 5
			dev := newTestDevice()
			stream := dev.NewStream()
			withNorms := tc.alg != RootSIFT
			features := func(cols int) *blas.Matrix {
				if withNorms {
					return randomFeatures(rng, d, cols, 512)
				}
				return rootSIFTFeatures(rng, d, cols)
			}

			refs := make([]*blas.Matrix, B)
			ids := make([]int, B)
			for i := range refs {
				refs[i] = features(m)
				ids[i] = 100 + i
			}
			q, err := NewQuery(dev, features(n), tc.prec, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Algorithm: tc.alg, Precision: tc.prec, Scale: tc.scale}

			batched, err := NewRefBatch(dev, ids, refs, tc.prec, tc.scale, withNorms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MatchBatch(stream, batched, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < B; i++ {
				single, err := NewRefBatch(dev, ids[i:i+1], refs[i:i+1], tc.prec, tc.scale, withNorms)
				if err != nil {
					t.Fatal(err)
				}
				want, err := MatchBatch(stream, single, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got[i].RefID != ids[i] {
					t.Fatalf("batch result %d has id %d", i, got[i].RefID)
				}
				for j := 0; j < n; j++ {
					g, w := got[i], want[0]
					if g.Best[j] != w.Best[j] || g.Second[j] != w.Second[j] || g.BestIdx[j] != w.BestIdx[j] {
						t.Fatalf("batch/sequential mismatch at ref %d query %d: best %v/%v second %v/%v idx %d/%d",
							i, j, g.Best[j], w.Best[j], g.Second[j], w.Second[j], g.BestIdx[j], w.BestIdx[j])
					}
				}
				single.Free()
			}
		})
	}
}

func TestPhantomTimingOnly(t *testing.T) {
	dev := newTestDevice()
	stream := dev.NewStream()
	rb, err := PhantomRefBatch(dev, 1024, 768, 128, gpusim.FP16, false)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := PhantomQuery(dev, 768, 128)
	res, err := MatchBatch(stream, rb, q, Options{Algorithm: RootSIFT, Precision: gpusim.FP16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1024 || res[0].Best != nil {
		t.Fatalf("phantom results should be empty shells, got %d with data=%v", len(res), res[0].Best != nil)
	}
	elapsed := dev.Synchronize()
	// Per-image time should be near Table 3's 21.96 us.
	per := elapsed / 1024
	if per < 15 || per > 30 {
		t.Fatalf("phantom batched per-image time %.2f us, expected ~22", per)
	}
}

// allocated is the device memory reserved so far.
func allocated(dev *gpusim.Device) int64 { return dev.Spec.MemBytes - dev.FreeBytes() }

func TestDeviceMemoryChargedAndFreed(t *testing.T) {
	dev := newTestDevice()
	base := allocated(dev)
	rb, err := PhantomRefBatch(dev, 10000, 768, 128, gpusim.FP16, true)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(10000) * (768*128*2 + 768*4)
	if allocated(dev)-base != want {
		t.Fatalf("allocated %d, want %d", allocated(dev)-base, want)
	}
	// Table 1's memory column: ~2307 MB including runtime overhead.
	totalMB := float64(allocated(dev)) / (1 << 20)
	if totalMB < 2100 || totalMB > 2500 {
		t.Fatalf("10k FP16 refs + overhead = %.0f MB, paper ~2307", totalMB)
	}
	rb.Free()
	if allocated(dev) != base {
		t.Fatal("Free did not release memory")
	}
}

func TestRefBatchValidation(t *testing.T) {
	dev := newTestDevice()
	rng := rand.New(rand.NewSource(6))
	if _, err := NewRefBatch(dev, []int{1}, nil, gpusim.FP32, 1, true); err == nil {
		t.Fatal("want error for id/matrix count mismatch")
	}
	if _, err := NewRefBatch(dev, nil, nil, gpusim.FP32, 1, true); err == nil {
		t.Fatal("want error for empty batch")
	}
	mats := []*blas.Matrix{randomFeatures(rng, 8, 4, 1), randomFeatures(rng, 8, 5, 1)}
	if _, err := NewRefBatch(dev, []int{0, 1}, mats, gpusim.FP32, 1, true); err == nil {
		t.Fatal("want error for ragged feature counts")
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	dev := newTestDevice()
	stream := dev.NewStream()
	rng := rand.New(rand.NewSource(7))
	rb, _ := NewRefBatch(dev, []int{0}, []*blas.Matrix{randomFeatures(rng, 16, 4, 1)}, gpusim.FP32, 1, true)
	q, _ := NewQuery(dev, randomFeatures(rng, 32, 4, 1), gpusim.FP32, 1)
	if _, err := MatchBatch(stream, rb, q, Options{Algorithm: Eq1Top2}); err == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestAlgorithmString(t *testing.T) {
	for algo, want := range map[Algorithm]string{
		Baseline: "cuda-opencv", Garcia: "cublas-garcia",
		Eq1Top2: "cublas-top2", RootSIFT: "cublas-rootsift",
	} {
		if algo.String() != want {
			t.Errorf("%d.String() = %q", algo, algo.String())
		}
	}
}

// selectTop2Block is the test oracle for the single-pass selection that
// replaces the insertion sort: it scans rows [lo, hi) of every column of C,
// keeping the two smallest values (as squared distances) and the block-
// relative index of the smallest.
func selectTop2Block(refID int, C *blas.Matrix, lo, hi int) Pair2NN {
	n := C.Cols
	r := Pair2NN{
		RefID:   refID,
		Best:    make([]float32, n),
		Second:  make([]float32, n),
		BestIdx: make([]int32, n),
	}
	for j := 0; j < n; j++ {
		col := C.Col(j)
		best, second := float32(math.MaxFloat32), float32(math.MaxFloat32)
		bestIdx := int32(-1)
		for i := lo; i < hi; i++ {
			v := col[i]
			if v < best {
				second = best
				best = v
				bestIdx = int32(i - lo)
			} else if v < second {
				second = v
			}
		}
		r.Best[j] = best
		r.Second[j] = second
		r.BestIdx[j] = bestIdx
	}
	return r
}

func TestPropertyTop2SelectionMatchesSortOracle(t *testing.T) {
	// The register-resident top-2 selection must agree with a full sort
	// for arbitrary inputs (including duplicates and negatives).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(30)
		cols := 1 + rng.Intn(8)
		C := blas.NewMatrix(rows, cols)
		for i := range C.Data {
			C.Data[i] = float32(rng.NormFloat64())
			if rng.Intn(10) == 0 {
				C.Data[i] = 0 // force duplicates
			}
		}
		got := selectTop2Block(7, C, 0, rows)
		for j := 0; j < cols; j++ {
			col := append([]float32(nil), C.Col(j)...)
			sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
			if got.Best[j] != col[0] || got.Second[j] != col[1] {
				return false
			}
			// BestIdx points at a minimal element.
			if C.At(int(got.BestIdx[j]), j) != col[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBlockOffsets(t *testing.T) {
	// Per-block selection over a concatenated matrix equals selection over
	// the individual blocks, with indices relative to the block.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(6)
		B := 1 + rng.Intn(4)
		C := blas.NewMatrix(B*m, 2)
		for i := range C.Data {
			C.Data[i] = rng.Float32()
		}
		for b := 0; b < B; b++ {
			whole := selectTop2Block(b, C, b*m, (b+1)*m)
			sub := C.Slice(0, C.Cols) // same matrix; compare index semantics
			_ = sub
			for j := 0; j < 2; j++ {
				idx := int(whole.BestIdx[j])
				if idx < 0 || idx >= m {
					return false
				}
				if C.At(b*m+idx, j) != whole.Best[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPhantomAndRealChargeTheSameOps pins the ledger contract: a match
// computes (or, phantom, does not) and then charges the device, and the
// charges depend on the shape alone. A phantom and a real match of one
// shape on fresh devices must leave equal profiles and equal clocks, also
// when the real multi-query slot match reads only one cell (a need mask).
func TestPhantomAndRealChargeTheSameOps(t *testing.T) {
	const d, m, n, B = 32, 24, 16, 4
	type ledger struct {
		prof  map[string]gpusim.OpStats
		clock float64
	}
	charge := func(t *testing.T, phantom bool, opts Options, slots []int32, Bq int) ledger {
		t.Helper()
		dev := newTestDevice()
		withNorms := opts.Algorithm == Garcia || opts.Algorithm == Eq1Top2
		refPrec := opts.Precision
		if opts.Algorithm == Baseline {
			refPrec = gpusim.FP32 // the brute-force kernel reads FP32 operands only
		}
		rng := rand.New(rand.NewSource(77))
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		var rb *RefBatch
		var err error
		if phantom {
			rb, err = PhantomRefBatch(dev, B, m, d, refPrec, withNorms)
		} else {
			refs, ids := make([]*blas.Matrix, B), make([]int, B)
			for i := range refs {
				refs[i], ids[i] = rootSIFTFeatures(rng, d, m), i
			}
			rb, err = NewRefBatch(dev, ids, refs, refPrec, 1, withNorms)
		}
		must(err)
		queries := make([]*Query, Bq)
		for i := range queries {
			if phantom {
				queries[i], err = PhantomQuery(dev, n, d)
			} else {
				queries[i], err = NewQuery(dev, rootSIFTFeatures(rng, d, n), opts.Precision, 1)
			}
			must(err)
		}
		mq, err := BuildMultiQuery(queries, opts.Precision, nil)
		must(err)
		var need []bool // a real pruned panel reads one cell; the charge stays the union's
		if !phantom && slots != nil && Bq > 1 {
			need = make([]bool, len(slots)*Bq)
			need[0] = true
		}
		res, err := Match(dev.NewStream(), rb, mq, slots, need, opts, nil)
		must(err)
		blocks := B
		if slots != nil {
			blocks = len(slots)
		}
		if len(res) != Bq || len(res[0]) != blocks {
			t.Fatalf("result shape [%d][%d], want [%d][%d]", len(res), len(res[0]), Bq, blocks)
		}
		return ledger{dev.Profile(), dev.Synchronize()}
	}

	for _, algo := range []Algorithm{Baseline, Garcia, Eq1Top2, RootSIFT} {
		for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
			slotSets, panels := [][]int32{nil}, []int{1}
			if algo == RootSIFT { // the only path that takes a slot set or a panel
				slotSets, panels = append(slotSets, []int32{1, 3}), append(panels, 3)
			}
			for _, slots := range slotSets {
				for _, Bq := range panels {
					name := fmt.Sprintf("%v/%v/slots=%v/Bq=%d", algo, prec, slots, Bq)
					t.Run(name, func(t *testing.T) {
						opts := Options{Algorithm: algo, Precision: prec}
						real, ph := charge(t, false, opts, slots, Bq), charge(t, true, opts, slots, Bq)
						if len(real.prof) == 0 {
							t.Fatal("a real match charged nothing")
						}
						if !reflect.DeepEqual(real.prof, ph.prof) {
							t.Errorf("profiles differ:\n real    %+v\n phantom %+v", real.prof, ph.prof)
						}
						if real.clock != ph.clock {
							t.Errorf("device clock: real %v, phantom %v", real.clock, ph.clock)
						}
					})
				}
			}
		}
	}
}

// TestRewriteSlotMatchesNewRefBatch: rewriting one slot in place leaves the
// batch holding exactly what NewRefBatch and AttachCodes build from the
// replaced set — columns, norms, FP16 overflow count, codes — and charges
// no device memory. Both the replaced and the new reference overflow FP16,
// by different counts, so the recount is exercised.
func TestRewriteSlotMatchesNewRefBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, m := 16, 12
	mats := []*blas.Matrix{randomFeatures(rng, d, m, 2e5), randomFeatures(rng, d, m, 1e5), randomFeatures(rng, d, m, 1)}
	repl := randomFeatures(rng, d, m, 3e5)
	thresh := binq.LearnThresholds(mats)
	build := func(dev *gpusim.Device, ms []*blas.Matrix, prec gpusim.Precision, withNorms bool) *RefBatch {
		t.Helper()
		rb, err := NewRefBatch(dev, []int{0, 1, 2}, ms, prec, 0.5, withNorms)
		if err != nil {
			t.Fatal(err)
		}
		var panel []binq.Code
		for _, mat := range ms {
			panel = thresh.Encode(mat, panel)
		}
		if err := rb.AttachCodes(panel, len(ms)); err != nil {
			t.Fatal(err)
		}
		return rb
	}
	for _, prec := range []gpusim.Precision{gpusim.FP32, gpusim.FP16} {
		for _, withNorms := range []bool{false, true} {
			dev := newTestDevice()
			rb := build(dev, mats, prec, withNorms)
			before := allocated(dev)
			if err := rb.RewriteSlot(1, repl, thresh.Encode(repl, nil)); err != nil {
				t.Fatal(err)
			}
			want := build(newTestDevice(), []*blas.Matrix{mats[0], repl, mats[2]}, prec, withNorms)
			if prec == gpusim.FP16 && (want.Overflow == 0 || want.Overflow == build(newTestDevice(), mats, prec, withNorms).Overflow) {
				t.Fatalf("fixture does not move the overflow count (%d)", want.Overflow)
			}
			if !reflect.DeepEqual(rb.F32, want.F32) || !reflect.DeepEqual(rb.F16, want.F16) ||
				!reflect.DeepEqual(rb.Norms, want.Norms) || rb.Overflow != want.Overflow ||
				!reflect.DeepEqual(rb.Codes(), want.Codes()) {
				t.Fatalf("%v norms=%v: rewritten batch differs from a fresh build (overflow %d, want %d)",
					prec, withNorms, rb.Overflow, want.Overflow)
			}
			if allocated(dev) != before {
				t.Fatalf("rewrite moved device memory %d -> %d", before, allocated(dev))
			}
		}
	}

	dev := newTestDevice()
	rb := build(dev, mats, gpusim.FP32, false)
	plain, err := NewRefBatch(dev, []int{0, 1, 2}, mats, gpusim.FP32, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	phantom, err := PhantomRefBatch(dev, 3, m, d, gpusim.FP32, false)
	if err != nil {
		t.Fatal(err)
	}
	codes := thresh.Encode(repl, nil)
	for name, err := range map[string]error{
		"phantom":        phantom.RewriteSlot(0, repl, nil),
		"slot range":     rb.RewriteSlot(3, repl, codes),
		"shape":          rb.RewriteSlot(0, randomFeatures(rng, d, m+1, 1), codes),
		"missing codes":  rb.RewriteSlot(0, repl, nil),
		"short codes":    rb.RewriteSlot(0, repl, codes[1:]),
		"codes no panel": plain.RewriteSlot(0, repl, codes),
	} {
		if err == nil {
			t.Errorf("%s: RewriteSlot accepted it", name)
		}
	}
}

// TestFP16BatchEqualsConcatThenConvert: an FP16 batch, converted source by
// source into its binary16 panel, holds exactly what converting the
// float32 concatenation of its sources gives — the panel, the overflow
// count and, with norms, the squared norms — on tight and strided sources
// whose sizes are no multiple of the conversion kernel's sixteen lanes,
// with values that overflow.
func TestFP16BatchEqualsConcatThenConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	d, m := 128, 37
	var mats []*blas.Matrix
	for i := range 5 {
		f := randomFeatures(rng, d, m, 2e6*float64(i%2)+1)
		if i%2 == 1 { // a strided view of the same values
			wide := blas.NewMatrix(d+3, m)
			for j := range m {
				copy(wide.Col(j), f.Col(j))
			}
			f = &blas.Matrix{Rows: d, Cols: m, Stride: d + 3, Data: wide.Data}
		}
		mats = append(mats, f)
	}
	concat := blas.ConcatColumns(mats...)
	for _, withNorms := range []bool{false, true} {
		rb, err := NewRefBatch(newTestDevice(), []int{0, 1, 2, 3, 4}, mats, gpusim.FP16, 0.5, withNorms)
		if err != nil {
			t.Fatal(err)
		}
		want, overflow := blas.HalfFromMatrix(concat, 0.5)
		if overflow == 0 {
			t.Fatal("fixture overflows nothing")
		}
		if rb.F32 != nil || !reflect.DeepEqual(rb.F16, want) || rb.Overflow != overflow {
			t.Fatalf("norms=%v: batch panel differs from concat-then-convert (overflow %d, want %d)",
				withNorms, rb.Overflow, overflow)
		}
		var wantNorms []float32
		if withNorms {
			wantNorms = blas.SquaredNorms(concat)
		}
		if !reflect.DeepEqual(rb.Norms, wantNorms) {
			t.Fatalf("norms=%v: batch norms differ from the concatenation's", withNorms)
		}
	}
}
