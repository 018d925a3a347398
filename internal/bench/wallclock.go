package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/half"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
	"texid/internal/texture"
)

// The rest of this package measures *simulated* device time: results are
// exact and deterministic, and "elapsed" means microseconds charged by the
// calibrated GPU model. This file is the opposite: it measures real host
// wall-clock time of the CPU kernels that back the simulator (GEMM, blur,
// extraction, the full search path), so host-side optimizations show up as
// real speedups. Wall-clock numbers are machine-dependent and live outside
// the determinism contract — they never feed back into simulated results.

// timed runs f iters times and returns the elapsed wall time and the heap
// allocations made meanwhile — the one place the suite reads the
// allocator's counters.
func timed(iters int, f func()) (time.Duration, uint64) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	dur := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return dur, ms1.Mallocs - ms0.Mallocs
}

// measure times f adaptively: iterations grow until one run takes at least
// minRunTime, and the reported ns/op is the best of count such runs (the
// usual defense against scheduler noise). Allocations are the last run's.
func measure(count int, f func()) (nsPerOp, allocsPerOp float64) {
	const minRunTime = 200 * time.Millisecond
	f() // warmup: pools, kernel caches, lazy init
	if count < 1 {
		count = 1
	}
	iters := 1
	best := 0.0
	for run := 0; run < count; run++ {
		for {
			dur, mallocs := timed(iters, f)
			if dur < minRunTime && iters < 1<<20 {
				// Re-run with more iterations (Go testing's strategy).
				grow := int(float64(iters) * 1.5 * float64(minRunTime) / float64(dur+1))
				if grow <= iters {
					grow = iters * 2
				}
				iters = grow
				continue
			}
			ns := float64(dur.Nanoseconds()) / float64(iters)
			if best == 0 || ns < best {
				best = ns
			}
			allocsPerOp = float64(mallocs) / float64(iters)
			break
		}
	}
	return best, allocsPerOp
}

// hostOp is a wall-clock kernel op. setup builds the fixture (only when the
// op is selected — the engine fixtures are too expensive to build just to be
// skipped) and returns the timed body plus its nominal bytes moved per
// iteration. ns/op carries a 20% tolerance, which scripts/bench.sh reads
// against the parent commit measured beside it; ceilingNS > 0 adds an
// absolute ns/op ceiling — a hard speedup floor that holds on any run. MB/s
// and allocs/op ride along as informational rows.
func hostOp(name string, count int, ceilingNS float64, setup func() (body func(), bytes float64)) Op {
	return Op{Name: name, Clock: ClockWall, Run: func() ([]Row, error) {
		body, bytes := setup()
		ns, allocs := measure(count, body)
		nsRow := newRow("ns_per_op", ns, "ns/op", lower).tol(0.20)
		if ceilingNS > 0 {
			nsRow = nsRow.limit(ceilingNS)
		}
		return []Row{
			nsRow,
			newRow("mb_per_s", bytes/(ns/1e9)/(1<<20), "MB/s", higher),
			newRow("allocs_per_op", allocs, "allocs/op", lower),
		}, nil
	}}
}

// mustSearch is the body of the engine search ops: a search error is a
// broken fixture, not a measurement.
func mustSearch(eng *engine.Engine, q *blas.Matrix, kps []sift.Keypoint) {
	if _, err := eng.Search(q, kps); err != nil {
		panic(fmt.Sprintf("bench: search: %v", err))
	}
}

// The three ceilings and the floor: hgemm_tn_256x256x128 measured
// 55,099,813 ns/op before the table-driven conversion + F16C fused-rounding
// kernels, so its ceiling pins a >=10x speedup; engine_search_steady_fp16
// gets an absolute 200 ms budget (was ~1.71 s); binq_scan_1m keeps the raw
// 1M-code scan under 300 ms even single-threaded; and
// engine_search_steady_pruned's speedup_vs_unpruned row pins the prefiltered
// search at >=5x under the unpruned one on the same 10x shard.
const (
	hgemmCeilingNS      = 5509981
	fp16SearchCeilingNS = 200e6
	scanCeilingNS       = 300e6
	prunedSpeedupFloor  = 5
)

// hostOps is the wall-clock part of the op table: the packed GEMM
// micro-kernel, the FP16 GEMM (both accumulator modes, and AccumFP16 at the
// resident batch shape), the separable blur, full SIFT extraction (at 128
// px and at the library search path's 256 px) and each of its four stages
// at 256 px, the fused FP32 and FP16 GEMM + top-2, the Hamming scan, one
// FP16 seal with the prefilter on, steady-state engine search (FP32, FP16,
// and pruned against unpruned on a 10x shard), a 2-query pruned FP16
// SearchBatch, and the end-to-end extract+search path.
func hostOps(count int) []Op {
	// An FP16 GEMM op runs whichever kernel tier the host selects; its
	// Verify checks the first (up to) 256 rows of the measured output
	// against blas.HGemmTNPortable over the matching columns of A, bit for
	// bit (the tiers' slice-invariance makes those rows the whole story).
	hgemm := func(name string, ceilingNS float64, m, n int, acc blas.AccumMode) Op {
		const d = 128
		var A, B *blas.HalfMatrix
		var C *blas.Matrix
		op := hostOp(name, count, ceilingNS, func() (func(), float64) {
			A, _ = blas.HalfFromMatrix(randMatrix(3, d, m), 1)
			B, _ = blas.HalfFromMatrix(randMatrix(4, d, n), 1)
			C = blas.NewMatrix(m, n)
			return func() { blas.HGemmTN(-2, A, B, acc, C) }, float64(2*(m*d+n*d) + 4*m*n)
		})
		op.Verify = func() bool {
			want := blas.NewMatrix(min(m, 256), n)
			blas.HGemmTNPortable(-2, A.Slice(0, want.Rows), B, acc, want)
			for j := 0; j < n; j++ {
				for i, w := range want.Col(j) {
					if math.Float32bits(C.Col(j)[i]) != math.Float32bits(w) {
						return false
					}
				}
			}
			return true
		}
		return op
	}
	// The SIFT-extracting search fixture is the slow one, so it is built
	// once per precision and shared: by engine_search_steady_fp32 and
	// extract_search_e2e, and by an op's runs at both GOMAXPROCS.
	fixtures := map[gpusim.Precision]*steadyFixture{}
	steady := func(prec gpusim.Precision, e2e bool) func() (func(), float64) {
		return func() (func(), float64) {
			fx := fixtures[prec]
			if fx == nil {
				fx = searchFixture(prec)
				fixtures[prec] = fx
			}
			bytes := float64(searchRefs) * float64(searchM) * 128 * float64(prec.ElemBytes())
			if e2e {
				return func() {
					f := sift.Extract(fx.queryIm, fx.cfg)
					mustSearch(fx.eng, f.Descriptors, f.Keypoints)
				}, bytes
			}
			return func() { mustSearch(fx.eng, fx.query.Descriptors, fx.query.Keypoints) }, bytes
		}
	}
	return []Op{
		// Packed FP32 GEMM at the paper's similarity-matrix shape.
		hostOp("gemm_tn_768x768x128", count, 0, func() (func(), float64) {
			const m, n, d = 768, 768, 128
			A := randMatrix(1, d, m)
			B := randMatrix(2, d, n)
			C := blas.NewMatrix(m, n)
			return func() { blas.GemmTN(-2, A, B, 0, C) }, float64(4 * (m*d + n*d + m*n))
		}),
		// FP16 GEMM, both accumulator modes (AccumFP16 on the native
		// AVX512-FP16 tier where the host has it, else the F16C
		// fused-rounding kernels with pooled staging; the fp32acc variant
		// pins the tensor-core-mode lane that the steady-state fixtures
		// don't exercise), and AccumFP16 at rest_search_resident's batch
		// shape: 8 references × 384 features against a 768-feature query.
		hgemm("hgemm_tn_256x256x128", hgemmCeilingNS, 256, 256, blas.AccumFP16),
		hgemm("hgemm_tn_256x256x128_fp32acc", 0, 256, 256, blas.AccumFP32),
		hgemm("hgemm_tn_3072x768x128", 0, 3072, 768, blas.AccumFP16),
		// Separable Gaussian blur on a pyramid-base-sized image.
		hostOp("blur_512_sigma1.6", count, 0, func() (func(), float64) {
			p := texture.DefaultGenParams()
			p.Size = 512
			im := texture.Generate(11, p)
			return func() { sift.BlurImage(im, 1.6) }, float64(4 * 4 * 512 * 512)
		}),
		// Full SIFT extraction (pyramid + detect + describe + RootSIFT).
		hostOp("sift_extract_128", count, 0, func() (func(), float64) {
			p := texture.DefaultGenParams()
			p.Size = 128
			im := texture.Generate(12, p)
			cfg := sift.DefaultConfig()
			cfg.RootSIFT = true
			return func() { sift.Extract(im, cfg) }, float64(4 * 128 * 128)
		}),
		// The same at lib_image_search's per-query shape: a 256 px texture
		// (a 512² pyramid base) and DefaultConfig's 768 features.
		hostOp("sift_extract_256", count, 0, func() (func(), float64) {
			p := texture.DefaultGenParams()
			p.Size = 256
			im := texture.Generate(13, p)
			cfg := sift.DefaultConfig()
			cfg.RootSIFT = true
			return func() { sift.Extract(im, cfg) }, float64(4 * 256 * 256)
		}),
		// Its four stages alone, at the same shape.
		siftStage(count, "sift_pyramid_256", (*sift.Stages).Pyramid),
		siftStage(count, "sift_detect_256", (*sift.Stages).Detect),
		siftStage(count, "sift_orient_256", (*sift.Stages).Orient),
		siftStage(count, "sift_describe_256", (*sift.Stages).Describe),
		// FP32 GEMM with the top-2 folded in, at rest_batch_churn's batch
		// shape, and the FP16 one at rest_search_resident's.
		gemmTop2(count),
		hgemmTop2(count),
		// Binary Hamming prefilter scan over a ~1M-descriptor shard.
		scan1M(count),
		// Sealing one 32-reference FP16 batch with the prefilter on.
		sealBatch(count),
		// Steady-state search on a 10x-larger reference set, pruned vs not.
		prunedSearch(count),
		// The pruned pass at rest_search_pruned_hybrid's coalesced shape.
		prunedSearchBatch(count),
		// Steady-state engine search and the end-to-end extract+search path.
		hostOp("engine_search_steady_fp32", count, 0, steady(gpusim.FP32, false)),
		hostOp("extract_search_e2e", count, 0, steady(gpusim.FP32, true)),
		hostOp("engine_search_steady_fp16", count, fp16SearchCeilingNS, steady(gpusim.FP16, false)),
	}
}

// siftStage times one stage of sift_extract_256's extraction alone, rerun
// on the previous stage's output. Its Verify reruns the stages after it
// and checks the extraction against sift.Extract's, bit for bit.
func siftStage(count int, name string, stage func(*sift.Stages)) Op {
	var im *texture.Image
	var cfg sift.Config
	var s *sift.Stages
	op := hostOp(name, count, 0, func() (func(), float64) {
		p := texture.DefaultGenParams()
		p.Size = 256
		im = texture.Generate(13, p)
		cfg = sift.DefaultConfig()
		cfg.RootSIFT = true
		s = sift.NewStages(im, cfg)
		return func() { stage(s) }, float64(4 * 256 * 256)
	})
	op.Verify = func() bool {
		s.Detect()
		s.Orient()
		s.Describe()
		return sameFeatures(s.Features(), sift.Extract(im, cfg))
	}
	return op
}

// sameFeatures reports whether two extractions hold the same keypoints and
// descriptor bits.
func sameFeatures(a, b *sift.Features) bool {
	if !slices.Equal(a.Keypoints, b.Keypoints) || len(a.Descriptors.Data) != len(b.Descriptors.Data) {
		return false
	}
	for i, v := range a.Descriptors.Data {
		if math.Float32bits(v) != math.Float32bits(b.Descriptors.Data[i]) {
			return false
		}
	}
	return true
}

// prunedSearch is steady-state search on the 10x shard with the prefilter
// on, and the same search with it off: the pair that backs the capacity
// claim (the prefilter reranks only PruneC of the 160 images, so the pruned
// search must stay close to the 16-image steady-state cost instead of
// scaling with the shard). Both run in one op, so speedup_vs_unpruned is the
// ratio of two timings taken back to back on one host. It is floored at
// GOMAXPROCS 1 only: with more Ps the unpruned GEMM spreads across them
// better than the prefilter's scan and top-C do, and the ratio sits too
// close to 5 to gate.
func prunedSearch(count int) Op {
	var unpruned func()
	op := hostOp("engine_search_steady_pruned", count, 0, func() (func(), float64) {
		eng, q := prunedSearchFixture(16)
		full, fq := prunedSearchFixture(0)
		unpruned = func() { mustSearch(full, fq, nil) }
		return func() { mustSearch(eng, q, nil) },
			float64(prunedRefs*searchM)*binq.Bytes + float64(16*searchM*128*2)
	})
	pruned := op.Run
	op.Run = func() ([]Row, error) {
		rows, err := pruned()
		if err != nil {
			return nil, err
		}
		ns, _ := measure(count, unpruned)
		speedup := newRow("speedup_vs_unpruned", ns/rows[0].Value, "x", higher)
		if runtime.GOMAXPROCS(0) == 1 {
			speedup = speedup.limit(prunedSpeedupFloor)
		}
		return append(rows, newRow("unpruned_ns_per_op", ns, "ns/op", lower).tol(0.20), speedup), nil
	}
	return op
}

// prunedSearchBatch is one pruned search pass at the shape the serving
// coalescer gives rest_search_pruned_hybrid's two closed-loop callers: a
// 2-query SearchBatch on an FP16 engine with PruneC 4 (the production
// 384×128 references, 768-feature queries, batches of 32). Its Verify
// checks every query's ranking against that query searched alone.
func prunedSearchBatch(count int) Op {
	var eng *engine.Engine
	var queries []*blas.Matrix
	var last *engine.BatchReport
	op := hostOp("engine_searchbatch_fp16_pruned", count, 0, func() (func(), float64) {
		eng, queries = prunedBatchFixture()
		return func() {
			var err error
			if last, err = eng.SearchBatch(queries, nil); err != nil {
				panic(fmt.Sprintf("bench: search batch: %v", err))
			}
		}, float64(prunedBatchRefs*eng.Config().RefFeatures) * binq.Bytes
	})
	op.Verify = func() bool {
		for qi, q := range queries {
			solo, err := eng.Search(q, nil)
			got := last.Reports[qi]
			if err != nil || got.BestID != solo.BestID || !slices.Equal(got.Ranked, solo.Ranked) {
				return false
			}
		}
		return true
	}
	return op
}

// prunedBatchRefs is engine_searchbatch_fp16_pruned's shard: ten batches
// of 32 references.
const prunedBatchRefs = 320

// prunedBatchFixture enrolls prunedBatchRefs stand-in RootSIFT references
// into an FP16 engine with PruneC 4 and returns it with two recaptured
// queries of references in different batches.
func prunedBatchFixture() (*engine.Engine, []*blas.Matrix) {
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 32
	cfg.Streams = 2
	cfg.PruneC = 4
	eng, err := engine.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: engine: %v", err))
	}
	rng := rand.New(rand.NewSource(47))
	refs := make([]*blas.Matrix, prunedBatchRefs)
	for i := range refs {
		refs[i] = unitDescriptors(rng, cfg.Dim, cfg.RefFeatures)
		if err := eng.Add(i, refs[i], nil); err != nil {
			panic(fmt.Sprintf("bench: enroll: %v", err))
		}
	}
	if err := eng.Flush(); err != nil {
		panic(fmt.Sprintf("bench: flush: %v", err))
	}
	return eng, []*blas.Matrix{
		noisyRecapture(rng, refs[3], cfg.QueryFeatures),
		noisyRecapture(rng, refs[170], cfg.QueryFeatures),
	}
}

// gemmTop2 is blas.GemmTop2 at rest_batch_churn's batch shape: 8 reference
// images × 384 features against a 4-query panel of 768 features each, the
// RootSIFT match's GEMM and top-2 in one call, packing the query panel
// for the native tier (blas.Panel) inside the timed call as a first match
// does. It runs whichever tier the host selects; its Verify checks every
// best, second and index against GemmTN followed by Top2AddRows per block,
// bit for bit.
func gemmTop2(count int) Op {
	const d, width, blocks, n = 128, 384, 8, 3072
	var A, B *blas.Matrix
	best, second, idx := make([]float32, blocks*n), make([]float32, blocks*n), make([]int32, blocks*n)
	op := hostOp("gemm_top2_3072x3072x128", count, 0, func() (func(), float64) {
		A, B = randMatrix(5, d, blocks*width), randMatrix(6, d, n)
		var c blas.Matrix
		var pk blas.Panel
		return func() {
				if blas.Top2Fused(false, blas.AccumFP32) {
					pk.Pack(B)
				}
				blas.GemmTop2(-2, A, width, nil, B, &pk, blas.Need{}, nil, best, second, idx, &c)
			},
			float64(4 * (blocks*width*d + n*d + 3*blocks*n))
	})
	op.Verify = func() bool {
		C := blas.NewMatrix(blocks*width, n)
		blas.GemmTN(-2, A, B, 0, C)
		return top2Matches(C, width, best, second, idx)
	}
	return op
}

// hgemmTop2 is blas.HGemmTop2 in AccumFP16 at rest_search_resident's batch
// shape, hgemm_tn_3072x768x128's: 8 reference images × 384 features
// against a 768-feature query, the FP16 RootSIFT match's GEMM and top-2 in
// one call, packing the query for the native tier as gemmTop2 does. It
// runs whichever tier the host selects; its Verify checks every best,
// second and index against the fallback, HGemmTN followed by Top2AddRows
// per block, bit for bit.
func hgemmTop2(count int) Op {
	const d, width, blocks, n = 128, 384, 8, 768
	var A, B *blas.HalfMatrix
	best, second, idx := make([]float32, blocks*n), make([]float32, blocks*n), make([]int32, blocks*n)
	op := hostOp("hgemm_top2_3072x768x128", count, 0, func() (func(), float64) {
		A, _ = blas.HalfFromMatrix(randMatrix(3, d, blocks*width), 1)
		B, _ = blas.HalfFromMatrix(randMatrix(4, d, n), 1)
		var c blas.Matrix
		var st blas.Staging
		var pk blas.Panel
		return func() {
				if blas.Top2Fused(true, blas.AccumFP16) {
					pk.PackHalf(B)
				}
				blas.HGemmTop2(-2, 1, A, width, nil, B, &pk, blas.Need{}, blas.AccumFP16, nil, best, second, idx, &c, &st)
			},
			float64(2*(blocks*width*d+n*d) + 4*3*blocks*n)
	})
	op.Verify = func() bool {
		C := blas.NewMatrix(blocks*width, n)
		blas.HGemmTN(-2, A, B, blas.AccumFP16, C)
		return top2Matches(C, width, best, second, idx)
	}
	return op
}

// top2Matches reports whether best, second and idx hold, bit for bit, what
// Top2AddRows (no norms) returns over each width-row block of C, block b's
// C.Cols results at b·C.Cols.
func top2Matches(C *blas.Matrix, width int, best, second []float32, idx []int32) bool {
	n := C.Cols
	wb, ws, wi := make([]float32, n), make([]float32, n), make([]int32, n)
	for b := 0; b < C.Rows/width; b++ {
		blas.Top2AddRows(C, nil, b*width, (b+1)*width, wb, ws, wi)
		for j := 0; j < n; j++ {
			at := b*n + j
			if math.Float32bits(best[at]) != math.Float32bits(wb[j]) ||
				math.Float32bits(second[at]) != math.Float32bits(ws[j]) || idx[at] != wi[j] {
				return false
			}
		}
	}
	return true
}

// scan1M is the binary Hamming prefilter scan over a ~1M-descriptor shard:
// the pruning hot loop (XOR + popcount over packed 128-bit codes, blocked
// and parallel), isolated from the rerank. It runs whichever scan tier the
// host selects; its Verify checks every measured score against
// binq.ScanPortable, the scalar reference.
func scan1M(count int) Op {
	const m, images, probes = 384, 2604, 64 // 999,936 codes
	var panel, q []binq.Code
	var scores []uint32
	op := hostOp("binq_scan_1m", count, scanCeilingNS, func() (func(), float64) {
		state := uint64(0x9E3779B97F4A7C15)
		next := func() uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		panel = make([]binq.Code, images*m)
		for i := range panel {
			panel[i] = binq.Code{next(), next()}
		}
		q = make([]binq.Code, probes)
		for i := range q {
			q[i] = binq.Code{next(), next()}
		}
		scores = make([]uint32, images)
		var sc binq.Scanner
		return func() { sc.Scan(panel, m, q, scores) }, float64(len(panel) * binq.Bytes)
	})
	op.Verify = func() bool {
		want := make([]uint32, images)
		binq.ScanPortable(panel, m, q, want)
		return slices.Equal(scores, want)
	}
	return op
}

// sealBatch times one FP16 seal with the prefilter on: a fresh engine
// enrolls sealRefs references of 384 descriptors and seals them into one
// batch, converting every descriptor to binary16 and encoding its code.
// Its Verify checks the sealed payload and codes against the scalar
// oracles, bit for bit.
func sealBatch(count int) Op {
	var fx *sealFixture
	var eng *engine.Engine
	op := hostOp("engine_seal_fp16_pruned", count, 0, func() (func(), float64) {
		fx = newSealFixture()
		return func() {
			var err error
			if eng, err = fx.seal(); err != nil {
				panic(fmt.Sprintf("bench: seal: %v", err))
			}
		}, float64(sealRefs * fx.cfg.RefFeatures * fx.cfg.Dim * (4 + 2))
	})
	op.Verify = func() bool { return fx.verify(eng) }
	return op
}

// sealRefs is engine_seal_fp16_pruned's batch: 32 references.
const sealRefs = 32

// sealFixture is the seal ops' input: sealRefs stand-in RootSIFT references
// at the production shape (DefaultConfig: FP16, scale 1, 384×128) and
// their thresholds. The thresholds are installed before enrolling, so
// every seal is the steady-state one: an index learns them once, at its
// first seal.
type sealFixture struct {
	cfg    engine.Config
	refs   []*blas.Matrix
	thresh binq.Thresholds
}

func newSealFixture() *sealFixture {
	cfg := engine.DefaultConfig()
	cfg.PruneC = 4
	rng := rand.New(rand.NewSource(45))
	refs := make([]*blas.Matrix, sealRefs)
	for i := range refs {
		refs[i] = unitDescriptors(rng, cfg.Dim, cfg.RefFeatures)
	}
	return &sealFixture{cfg, refs, binq.LearnThresholds(refs)}
}

// seal builds a fresh engine, enrolls the references and seals them.
func (fx *sealFixture) seal() (*engine.Engine, error) {
	eng, err := engine.New(fx.cfg)
	if err != nil {
		return nil, err
	}
	if err := eng.SetThresholds(fx.thresh); err != nil {
		return nil, err
	}
	for i, f := range fx.refs {
		if err := eng.Add(i, f, nil); err != nil {
			return nil, err
		}
	}
	return eng, eng.Flush()
}

// verify reports whether eng holds every reference as the scalar oracles
// make it: each element half.FromFloat32 of the source (the scale is 1, so
// Export's widening gives the binary16 value exactly) and the codes
// EncodePortable gives.
func (fx *sealFixture) verify(eng *engine.Engine) bool {
	ok, seen := true, 0
	err := eng.Export(func(id int, feats *blas.Matrix, _ []sift.Keypoint, codes []binq.Code) error {
		seen++
		src := fx.refs[id]
		for j := 0; j < src.Cols; j++ {
			for i, v := range src.Col(j) {
				ok = ok && math.Float32bits(feats.At(i, j)) == math.Float32bits(half.FromFloat32(v).Float32())
			}
		}
		ok = ok && slices.Equal(codes, fx.thresh.EncodePortable(src, nil))
		return nil
	})
	return err == nil && ok && seen == sealRefs && fx.cfg.Scale == 1
}

const (
	searchRefs = 16
	searchM    = 256
	// prunedRefs is the 10x shard for the pruning pair: large enough that
	// an unpruned search is GEMM-dominated, small enough to enroll fast.
	prunedRefs = 10 * searchRefs
)

// unitDescriptors returns a d×n matrix of non-negative unit-norm columns —
// the shape and value range of RootSIFT descriptors. The pruning fixtures
// enroll 160 reference images; synthesizing descriptors keeps that setup in
// milliseconds where SIFT extraction would dominate the whole suite.
func unitDescriptors(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var sum float64
		for i := range col {
			v := float32(rng.Float64())
			col[i] = v * v // skew toward small values like real histograms
			sum += float64(col[i]) * float64(col[i])
		}
		scaleCol(col, sum)
	}
	return m
}

// scaleCol divides col by the square root of sum, its squared L2 norm.
func scaleCol(col []float32, sum float64) {
	inv := float32(1 / (math.Sqrt(sum) + 1e-12))
	for i := range col {
		col[i] *= inv
	}
}

// recaptureSigma is the standard deviation of noisyRecapture's per-element
// noise.
const recaptureSigma float64 = 0.02

// noisyRecapture builds an n-column query from a reference's descriptors:
// each query column is a perturbed copy of a (cycled) reference column,
// clamped non-negative and re-normalized.
func noisyRecapture(rng *rand.Rand, ref *blas.Matrix, n int) *blas.Matrix {
	q := blas.NewMatrix(ref.Rows, n)
	for j := 0; j < n; j++ {
		src := ref.Col(j % ref.Cols)
		col := q.Col(j)
		var sum float64
		for i := range col {
			v := src[i] + float32(rng.NormFloat64()*recaptureSigma)
			if v < 0 {
				v = 0
			}
			col[i] = v
			sum += float64(v) * float64(v)
		}
		scaleCol(col, sum)
	}
	return q
}

// searchEngine builds the empty engine both search fixtures enroll into.
func searchEngine(prec gpusim.Precision, pruneC int) *engine.Engine {
	cfg := engine.DefaultConfig()
	cfg.Precision = prec
	cfg.Algorithm = knn.RootSIFT
	cfg.Accum = blas.AccumFP16
	cfg.BatchSize = 8
	cfg.Streams = 2
	cfg.RefFeatures = searchM
	cfg.QueryFeatures = 768
	cfg.Match = match.DefaultConfig()
	cfg.PruneC = pruneC
	eng, err := engine.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: engine: %v", err))
	}
	return eng
}

// prunedSearchFixture builds the 10x-shard engine for the pruning pair.
// pruneC == 0 leaves the prefilter off (the unpruned comparison).
func prunedSearchFixture(pruneC int) (*engine.Engine, *blas.Matrix) {
	eng := searchEngine(gpusim.FP16, pruneC)
	rng := rand.New(rand.NewSource(4242))
	refs := make([]*blas.Matrix, prunedRefs)
	for i := range refs {
		refs[i] = unitDescriptors(rng, eng.Config().Dim, searchM)
		if err := eng.Add(i, refs[i], nil); err != nil {
			panic(fmt.Sprintf("bench: enroll: %v", err))
		}
	}
	if err := eng.Flush(); err != nil {
		panic(fmt.Sprintf("bench: flush: %v", err))
	}
	return eng, noisyRecapture(rng, refs[3], 768)
}

// steadyFixture is a small engine with enrolled synthetic references plus
// one captured query (image and extracted features) for the steady-state
// search ops.
type steadyFixture struct {
	eng     *engine.Engine
	queryIm *texture.Image
	query   *sift.Features
	cfg     sift.Config
}

func searchFixture(prec gpusim.Precision) *steadyFixture {
	eng := searchEngine(prec, 0)
	p := texture.DefaultGenParams()
	p.Size = 128
	ecfg := sift.DefaultConfig()
	ecfg.RootSIFT = true
	ims := make([]*texture.Image, searchRefs)
	for i := range ims {
		ims[i] = texture.Generate(int64(100+i), p)
	}
	for i, f := range sift.ExtractBatch(ims, ecfg) {
		if err := eng.Add(i, trim(f, searchM, false), f.Keypoints); err != nil {
			panic(fmt.Sprintf("bench: enroll: %v", err))
		}
	}

	rng := rand.New(rand.NewSource(999))
	queryIm := texture.RandomPerturbation(rng, 0.4).Apply(ims[3])
	return &steadyFixture{eng, queryIm, sift.Extract(queryIm, ecfg), ecfg}
}

// randMatrix fills a rows×cols matrix with a deterministic pattern in
// (-1, 1) — enough variety to defeat any value-dependent shortcuts.
func randMatrix(seed int64, rows, cols int) *blas.Matrix {
	m := blas.NewMatrix(rows, cols)
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range m.Data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		m.Data[i] = float32(int64(state%2001)-1000) / 1000
	}
	return m
}
