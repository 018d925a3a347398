// Package knn implements the 2-nearest-neighbors feature matching kernels
// at the heart of the texture-identification system, in all the variants
// the paper compares (Table 1):
//
//   - Baseline: the monolithic OpenCV-CUDA brute-force kernel.
//   - Garcia: the cuBLAS formulation of Garcia et al. [9] — Algorithm 1
//     with a modified insertion sort.
//   - Eq1Top2: the paper's optimized Algorithm 1 — the sort is replaced by
//     a register-resident single-pass top-2 scan (81.9% less sort time).
//   - RootSIFT: Algorithm 2 — with unit-norm RootSIFT features the
//     N_R/N_Q terms vanish and the pipeline collapses to GEMM + fused
//     top-2/sqrt, which is also the batched production path.
//
// Each variant both *executes* (computes real distances on real features)
// and *costs* (enqueues the corresponding operations on a gpusim stream),
// so accuracy experiments and timing experiments share one code path.
// Phantom blocks carry dimensions but no data, letting paper-scale timing
// sweeps run without petaflops of host arithmetic.
package knn

import (
	"fmt"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
)

// Algorithm selects the matching kernel variant.
type Algorithm int

const (
	// Baseline is the native OpenCV-CUDA brute-force implementation.
	Baseline Algorithm = iota
	// Garcia is Algorithm 1 with the reference insertion sort [9].
	Garcia
	// Eq1Top2 is Algorithm 1 with the single-pass top-2 scan (ours).
	Eq1Top2
	// RootSIFT is Algorithm 2: unit-norm features, GEMM + fused
	// top-2/sqrt (ours, the production path).
	RootSIFT
)

func (a Algorithm) String() string {
	switch a {
	case Baseline:
		return "cuda-opencv"
	case Garcia:
		return "cublas-garcia"
	case Eq1Top2:
		return "cublas-top2"
	case RootSIFT:
		return "cublas-rootsift"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures a match invocation.
type Options struct {
	Algorithm Algorithm
	Precision gpusim.Precision
	// Scale is the FP16 scale factor applied to features before
	// conversion (Table 2); ignored for FP32. Zero means 1.
	Scale float32
	// Accum is the FP16 GEMM accumulator mode (FP16 on P100, FP32 with
	// tensor cores).
	Accum blas.AccumMode
}

// Pair2NN is the 2-NN result of one query image against one reference
// image: for every query feature, the distance to its nearest and
// second-nearest reference feature, plus the nearest feature's index for
// geometric verification. Distances are true (unsquared) Euclidean
// distances; an overflowed FP16 distance surfaces as +Inf.
type Pair2NN struct {
	RefID   int
	Best    []float32
	Second  []float32
	BestIdx []int32
}

// RefBatch is a batch of B reference feature matrices resident in device
// memory, concatenated column-wise (Fig. 3) so one GEMM serves the whole
// batch. FP16 batches also keep the conversion overflow count.
type RefBatch struct {
	dev      *gpusim.Device
	IDs      []int
	M, D     int
	F32      *blas.Matrix     // d×(B·M); nil for FP16-only or phantom batches
	F16      *blas.HalfMatrix // nil for FP32 or phantom batches
	Norms    []float32        // squared L2 norms of the original features
	Scale    float32
	Overflow int
	bytes    int64
	freed    bool
	phantom  bool

	// codes is the batch's binary prefilter panel: one packed 128-bit code
	// per descriptor, slot i's codes at codes[i*M:(i+1)*M] (mirroring the
	// concatenated feature layout). Unlike the feature payload, the code
	// panel stays device-resident across cache demotion — at 16 bytes per
	// descriptor it is ~6% of the FP16 feature footprint, and keeping it on
	// the device is what lets the Hamming scan run without re-streaming
	// demoted batches. Nil when pruning is disabled; nil with codeBytes > 0
	// for phantom batches.
	codes      []binq.Code
	codeBytes  int64
	codesFreed bool
}

// ReleasePanel does nothing: batches no longer cache a widened operand. It
// stays only because benchmark/kernels.go calls it (see ROADMAP's pinned names).
func (rb *RefBatch) ReleasePanel() {}

// Count returns the number of reference images in the batch.
func (rb *RefBatch) Count() int { return len(rb.IDs) }

// Bytes returns the logical size of the batch — the device memory it holds
// when resident, and the transfer size when it must be streamed from the
// host after demotion.
func (rb *RefBatch) Bytes() int64 { return rb.bytes }

// Phantom reports whether the batch carries timing dimensions only.
func (rb *RefBatch) Phantom() bool { return rb.phantom }

// refBatchBytes returns the device footprint of a batch: the feature
// matrix plus, for the Algorithm-1 paths, the FP32 norm vectors. RootSIFT
// batches need no norms (withNorms=false), one source of the capacity win.
func refBatchBytes(count, m, d int, prec gpusim.Precision, withNorms bool) int64 {
	b := int64(count) * int64(m) * int64(d) * int64(prec.ElemBytes())
	if withNorms {
		b += int64(count) * int64(m) * 4
	}
	return b
}

// NewRefBatch uploads reference feature matrices (each d×m with the same m)
// into device memory. ids give each matrix its stable identity. For FP16,
// features are scaled by scale before conversion.
func NewRefBatch(dev *gpusim.Device, ids []int, mats []*blas.Matrix, prec gpusim.Precision, scale float32, withNorms bool) (*RefBatch, error) {
	if len(ids) != len(mats) {
		return nil, fmt.Errorf("knn: %d ids for %d matrices", len(ids), len(mats))
	}
	if len(mats) == 0 {
		return nil, fmt.Errorf("knn: empty reference batch")
	}
	if scale == 0 {
		scale = 1
	}
	d := mats[0].Rows
	m := mats[0].Cols
	for i, mat := range mats {
		if mat.Rows != d || mat.Cols != m {
			return nil, fmt.Errorf("knn: reference %d is %dx%d, want %dx%d", i, mat.Rows, mat.Cols, d, m)
		}
	}
	rb := &RefBatch{
		dev:   dev,
		IDs:   append([]int(nil), ids...),
		M:     m,
		D:     d,
		Scale: scale,
		bytes: refBatchBytes(len(mats), m, d, prec, withNorms),
	}
	if withNorms {
		rb.Norms = make([]float32, len(mats)*m)
		for i, mat := range mats {
			blas.SquaredNormsInto(mat, rb.Norms[i*m:(i+1)*m])
		}
	}
	// An FP16 batch converts each source straight into its columns of the
	// binary16 panel; only FP32 storage is a float32 concatenation.
	if prec == gpusim.FP16 {
		rb.F16 = &blas.HalfMatrix{}
		rb.Overflow = blas.HalfColumnsInto(mats, scale, rb.F16)
	} else {
		rb.F32 = blas.ConcatColumns(mats...)
	}
	if err := dev.Alloc(rb.bytes); err != nil {
		return nil, err
	}
	return rb, nil
}

// PhantomRefBatch reserves device memory for a batch of the given
// dimensions without any payload, for paper-scale timing experiments.
func PhantomRefBatch(dev *gpusim.Device, count, m, d int, prec gpusim.Precision, withNorms bool) (*RefBatch, error) {
	rb := &RefBatch{
		dev:     dev,
		IDs:     make([]int, count),
		M:       m,
		D:       d,
		Scale:   1,
		bytes:   refBatchBytes(count, m, d, prec, withNorms),
		phantom: true,
	}
	for i := range rb.IDs {
		rb.IDs[i] = i
	}
	if err := dev.Alloc(rb.bytes); err != nil {
		return nil, err
	}
	return rb, nil
}

// Free releases the batch's device memory. The batch data (if any) stays in
// host memory and Bytes() keeps reporting the logical size, so a demoted
// batch can still be streamed back to the device. The binary code panel, if
// attached, deliberately survives demotion: FreeCodes releases it when the
// batch leaves the index for good.
func (rb *RefBatch) Free() {
	if !rb.freed {
		rb.dev.Free(rb.bytes)
		rb.freed = true
	}
}

// AttachCodes stores the batch's binary prefilter code panel and charges
// its device footprint (count·M codes of 16 bytes). codes may be nil for
// phantom batches, in which case only the footprint is charged. The panel
// is charged outside Bytes() because it is never demoted with the feature
// payload — the scan must always find it resident.
func (rb *RefBatch) AttachCodes(codes []binq.Code, count int) error {
	if codes != nil && len(codes) != count*rb.M {
		return fmt.Errorf("knn: %d codes for %d references of %d descriptors", len(codes), count, rb.M)
	}
	bytes := int64(count) * int64(rb.M) * binq.Bytes
	if err := rb.dev.Alloc(bytes); err != nil {
		return err
	}
	rb.codes = codes
	rb.codeBytes = bytes
	rb.codesFreed = false
	return nil
}

// RewriteSlot overwrites slot's reference in place with mat (d×M) and, when
// the batch carries a code panel, its M codes, storing exactly what
// NewRefBatch and AttachCodes would have: the FP32 columns, or the FP16
// columns with Overflow recounted; the squared norms when the batch keeps
// them; the codes. The footprint does not change, so no device memory is
// charged or released. The caller must exclude every reader of the batch.
func (rb *RefBatch) RewriteSlot(slot int, mat *blas.Matrix, codes []binq.Code) error {
	switch {
	case rb.phantom:
		return fmt.Errorf("knn: cannot rewrite a slot of a phantom batch")
	case slot < 0 || slot >= rb.Count():
		return fmt.Errorf("knn: slot %d of a %d-reference batch", slot, rb.Count())
	case mat.Rows != rb.D || mat.Cols != rb.M:
		return fmt.Errorf("knn: reference is %dx%d, want %dx%d", mat.Rows, mat.Cols, rb.D, rb.M)
	case (codes == nil) != (rb.codes == nil) || codes != nil && len(codes) != rb.M:
		return fmt.Errorf("knn: %d codes for a slot of %d descriptors (batch has a panel: %v)",
			len(codes), rb.M, rb.codes != nil)
	}
	lo := slot * rb.M
	if rb.F16 != nil {
		// The slot's columns are contiguous (Stride == Rows), so the view
		// converts in place through NewRefBatch's own conversion.
		dst := rb.F16.Slice(lo, lo+rb.M)
		for _, x := range dst.Data {
			if x.IsInf() {
				rb.Overflow--
			}
		}
		rb.Overflow += blas.HalfFromMatrixInto(mat, rb.Scale, dst)
	} else {
		for j := 0; j < rb.M; j++ {
			copy(rb.F32.Col(lo+j), mat.Col(j))
		}
	}
	if rb.Norms != nil {
		blas.SquaredNormsInto(mat, rb.Norms[lo:lo+rb.M])
	}
	if codes != nil {
		copy(rb.codes[lo:lo+rb.M], codes)
	}
	return nil
}

// Codes returns the batch's binary code panel (nil when pruning is off or
// the batch is phantom).
func (rb *RefBatch) Codes() []binq.Code { return rb.codes }

// FreeCodes releases the code panel's device memory. Call it when the
// batch leaves the index permanently; demotion must not.
func (rb *RefBatch) FreeCodes() {
	if rb.codeBytes > 0 && !rb.codesFreed {
		rb.dev.Free(rb.codeBytes)
		rb.codesFreed = true
		rb.codes = nil
	}
}

// Query is a query feature matrix staged in device memory. FP16 queries
// are staged in both precisions so one upload serves every algorithm
// variant; pure-FP32 queries skip the binary16 conversion and its device
// footprint entirely.
type Query struct {
	dev      *gpusim.Device
	N, D     int
	F32      *blas.Matrix
	F16      *blas.HalfMatrix // nil for FP32-staged queries
	Norms    []float32
	Scale    float32
	Overflow int
	bytes    int64
	phantom  bool
}

// queryBytes is the device footprint of a staged query: 4 bytes/element
// for the FP32 copy, plus 2 for the binary16 copy when the engine runs
// FP16.
func queryBytes(n, d int, prec gpusim.Precision) int64 {
	per := int64(4)
	if prec == gpusim.FP16 {
		per = 6
	}
	return int64(n) * int64(d) * per
}

// NewQuery uploads a query feature matrix (d×n), staged for the given
// engine precision: FP32 engines pay neither the HalfFromMatrix conversion
// nor the fp16 copy's device bytes; FP16 engines stage both copies so the
// same upload serves the FP32-realm variants (Baseline, norms).
func NewQuery(dev *gpusim.Device, mat *blas.Matrix, prec gpusim.Precision, scale float32) (*Query, error) {
	return NewQueryScratch(dev, mat, prec, scale, nil)
}

// PhantomQuery reserves query dimensions without payload.
func PhantomQuery(dev *gpusim.Device, n, d int) (*Query, error) {
	q := &Query{dev: dev, N: n, D: d, Scale: 1, bytes: int64(n) * int64(d) * 6, phantom: true}
	if err := dev.Alloc(q.bytes); err != nil {
		return nil, err
	}
	return q, nil
}

// Free releases the query's device memory and lets go of the caller's
// feature matrix, so a recycled shell (QueryScratch) does not pin the last
// request's features until the next search.
func (q *Query) Free() {
	if q.bytes > 0 {
		q.dev.Free(q.bytes)
		q.bytes = 0
	}
	q.F32 = nil
}

// resultBytes is the D2H payload per reference item: the 2×n distance
// sub-matrix plus the 2×n int32 index matrix (Algorithm 1 step 8).
func resultBytes(n int, prec gpusim.Precision) int64 {
	return int64(2*n*prec.ElemBytes()) + int64(2*n*4)
}

// WorkspaceBytes returns the per-invocation device workspace: the
// (B·m)×n distance matrix in the working precision. The engine charges
// this per stream (Table 6's "extra GPU memory" column).
func WorkspaceBytes(batch, m, n int, prec gpusim.Precision) int64 {
	return int64(batch) * int64(m) * int64(n) * int64(prec.ElemBytes())
}
