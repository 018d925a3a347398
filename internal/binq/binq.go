// Package binq implements the binary-quantized Hamming prefilter that lets
// a shard hold millions of references without paying the exact GEMM for
// every one of them. Each 128-d RootSIFT descriptor is binarized into a
// packed 128-bit code (bit i = sign of the mean-centered component i, the
// "sign-of-mean" quantizer of Jian et al.'s XOR-friendly binary
// quantization), so one reference image collapses from m·d·2 bytes of FP16
// features to m·16 bytes of codes, a 16× smaller operand. A blocked XOR +
// popcount scan keeps each image's codes in L1 across all probes, so
// popcount throughput, not memory bandwidth, bounds it; an AVX-512 VPOPCNTQ
// tier (scan_amd64.s) holds up to 64 probes in registers, one per lane, and
// compares each code against eight of them per instruction, bit-identical
// to the scalar loop. The scan keeps a
// deterministic top-C candidate set per query; only those candidates go
// through the exact GemmTop2 (FP32) or HGemmTop2 (FP16) rerank, which is
// why pruned scores are bitwise identical to unpruned ones (see the
// engine's pruning pipeline).
//
// Everything here is deterministic by construction: the scan parallelizes
// over disjoint per-image score slots (blas.Parallel's shape-only
// partition), the selector breaks score ties by the lower image index, and
// no float arithmetic is involved anywhere.
package binq

import (
	"math/bits"
	"slices"

	"texid/internal/blas"
)

const (
	// Words is the number of 64-bit words per code.
	Words = 2
	// MaxDim is the largest descriptor dimensionality a code can hold.
	MaxDim = Words * 64
)

// Code is one packed binary descriptor: bit i (word i/64, bit i%64) is set
// iff component i of the descriptor exceeds its learned threshold.
type Code [Words]uint64

// Bytes is the storage footprint of one code.
const Bytes = Words * 8

// Thresholds holds the per-dimension binarization cut points, learned once
// at enroll time (the mean of each dimension over the first sealed batch)
// and frozen thereafter so codes stay comparable across batches and across
// snapshot save/load.
type Thresholds []float32

// LearnThresholds computes per-dimension means over the columns of the
// given descriptor matrices. RootSIFT components are all non-negative, so
// mean-centering is what gives the sign bit its information content.
func LearnThresholds(mats []*blas.Matrix) Thresholds {
	if len(mats) == 0 {
		return nil
	}
	d := mats[0].Rows
	sums := make([]float64, d)
	n := 0
	for _, m := range mats {
		for j := 0; j < m.Cols; j++ {
			col := m.Col(j)
			for i, v := range col {
				sums[i] += float64(v)
			}
		}
		n += m.Cols
	}
	t := make(Thresholds, d)
	if n == 0 {
		return t
	}
	for i, s := range sums {
		t[i] = float32(s / float64(n))
	}
	return t
}

// Encode appends one code per column of mat to dst and returns the extended
// slice. Bit i is set iff col[i] > t[i] — strictly greater, so the
// quantizer is a pure function of the float bits with no ties to break.
// mat.Rows must not exceed MaxDim (or len(t)). A full MaxDim-row matrix
// encodes on the first tier the host has, chosen once from CPUID: AVX-512
// (encode128, eight 16-lane compares per column), else the scalar loop,
// which is the reference (EncodePortable) and takes every shorter shape.
// The codes are written straight into dst's spare capacity, which grows
// only when short.
func (t Thresholds) Encode(mat *blas.Matrix, dst []Code) []Code {
	if !useAVX512F || mat.Rows != MaxDim || len(t) < MaxDim || mat.Cols == 0 {
		return t.EncodePortable(mat, dst)
	}
	_ = mat.Data[(mat.Cols-1)*mat.Stride+MaxDim-1] // the kernel reads every column whole
	n := len(dst)
	dst = slices.Grow(dst, mat.Cols)[:n+mat.Cols]
	encode128(&t[0], &mat.Data[0], mat.Stride, mat.Cols, &dst[n])
	return dst
}

// EncodePortable is Encode on the scalar loop whatever the host — the
// encoder TEXID_NOASM=1 selects — and the oracle the native tier is
// checked against.
func (t Thresholds) EncodePortable(mat *blas.Matrix, dst []Code) []Code {
	for j := 0; j < mat.Cols; j++ {
		col := mat.Col(j)
		var c Code
		for i, v := range col {
			if v > t[i] {
				c[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// Scanner runs the prefilter kernel with zero warm-path allocations: the
// per-image closure handed to blas.Parallel is bound once and reused, so
// steady-state scans never touch the heap. A Scanner is not safe for
// concurrent use; the engine owns one per engine under its exec mutex.
type Scanner struct {
	panel  []Code
	m      int
	probes []Code
	groups []laneGroup // the probes transposed for the native tier
	scores []uint32
	fn     func(int)
}

// laneGroup is eight probes in the native kernel's layout, one per lane:
// their lo words, their hi words, and where their running minima start —
// all ones for a probe, 0 for a lane past the probe count, which so adds
// nothing to the sum.
type laneGroup struct {
	lo, hi, start [8]uint64
}

// transpose lays probes out as lane groups in s.groups, reusing its
// storage.
func (s *Scanner) transpose(probes []Code) {
	n := (len(probes) + 7) / 8
	if cap(s.groups) < n {
		s.groups = make([]laneGroup, n)
	}
	s.groups = s.groups[:n]
	for g := range s.groups {
		grp := &s.groups[g]
		for l := range 8 {
			grp.lo[l], grp.hi[l], grp.start[l] = 0, 0, 0
			if p := g*8 + l; p < len(probes) {
				grp.lo[l], grp.hi[l], grp.start[l] = probes[p][0], probes[p][1], ^uint64(0)
			}
		}
	}
}

// Scan is the prefilter kernel: panel holds images·m codes (image i's
// descriptors occupy panel[i*m:(i+1)*m], mirroring the concatenated GEMM
// operand layout), and for every image the kernel accumulates
//
//	scores[i] = Σ_p min_j Hamming(probes[p], panel[i*m+j])
//
// — each query probe votes with its distance to the image's closest code,
// so a matching reference accumulates a small score. The loop blocks by
// image: one image's 6 KB code block stays cache-resident across all
// probes, which is what makes the host kernel compute-bound rather than
// re-streaming the panel per probe. Each image block runs on the first
// kernel tier the host has, chosen once from CPUID: AVX-512 VPOPCNTQ
// (scanLanes: the probes transposed once per call, eight to a register,
// and each code broadcast against them, so no step shuffles across
// lanes), else the scalar loop, which is the reference (ScanPortable).
// Integer minima and sums have no rounding to reorder, so the tiers agree
// bit for bit by construction.
// Parallelism is per image via blas.Parallel (shape-only partition,
// disjoint score writes), so results are bitwise independent of GOMAXPROCS
// too.
//
// len(panel) must be a multiple of m and len(scores) = len(panel)/m. The
// warm path performs zero allocations.
func (s *Scanner) Scan(panel []Code, m int, probes []Code, scores []uint32) {
	if m <= 0 || len(panel) == 0 {
		return
	}
	if s.fn == nil {
		s.fn = s.scanImage
	}
	s.panel, s.m, s.probes, s.scores = panel, m, probes, scores
	if useVPOPCNTQ {
		s.transpose(probes)
	}
	blas.Parallel(len(panel)/m, s.fn)
	s.panel, s.probes, s.scores = nil, nil, nil
}

// ScanPortable is Scan on the scalar kernel whatever the host — the kernel
// TEXID_NOASM=1 selects — on one goroutine: the oracle a measured native
// scan is checked against.
func ScanPortable(panel []Code, m int, probes []Code, scores []uint32) {
	if m <= 0 {
		return
	}
	for img := range len(panel) / m {
		scores[img] = scanScalar(panel[img*m:(img+1)*m], probes)
	}
}

// scanImage scores one image block against every probe.
func (s *Scanner) scanImage(img int) {
	block := s.panel[img*s.m : (img+1)*s.m]
	if useVPOPCNTQ {
		s.scores[img] = scanLanes(block, s.groups)
		return
	}
	s.scores[img] = scanScalar(block, s.probes)
}

// scanScalar is the reference kernel: Σ_p min_j Hamming(probes[p], block[j]).
func scanScalar(block, probes []Code) uint32 {
	var sum uint32
	for _, p := range probes {
		p0, p1 := p[0], p[1]
		minD := uint32(MaxDim + 1)
		for _, c := range block {
			d := uint32(bits.OnesCount64(c[0]^p0) + bits.OnesCount64(c[1]^p1))
			if d < minD {
				minD = d
			}
		}
		sum += minD
	}
	return sum
}

// candidate is one selector entry.
type candidate struct {
	score uint32
	idx   int32
}

// TopC is a deterministic bounded selector: it retains the c entries with
// the smallest scores, breaking score ties toward the smaller index. The
// heap buffer is retained across Reset calls, so a warm selector allocates
// nothing.
type TopC struct {
	c    int
	heap []candidate // max-heap: worst retained entry at the root
}

// Reset prepares the selector to keep the best c entries.
func (t *TopC) Reset(c int) {
	t.c = c
	if cap(t.heap) < c {
		t.heap = make([]candidate, 0, c)
	}
	t.heap = t.heap[:0]
}

// Len returns the number of entries currently retained.
func (t *TopC) Len() int { return len(t.heap) }

// worse reports whether a ranks strictly worse than b: a larger score, or
// an equal score at a larger index. This is the heap order (worst at root)
// and its negation is the selection order.
func worse(a, b candidate) bool {
	return a.score > b.score || (a.score == b.score && a.idx > b.idx)
}

// Offer considers one (index, score) entry. Entries must be offered in
// ascending index order for the tie-break to be meaningful; the selection
// is then a pure function of the score slice.
func (t *TopC) Offer(idx int32, score uint32) {
	e := candidate{score: score, idx: idx}
	if len(t.heap) < t.c {
		t.heap = append(t.heap, e)
		t.siftUp(len(t.heap) - 1)
		return
	}
	if t.c == 0 || !worse(t.heap[0], e) {
		return // e is no better than the current worst
	}
	t.heap[0] = e
	t.siftDown(0)
}

func (t *TopC) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.heap[i], t.heap[parent]) {
			return
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *TopC) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(t.heap[l], t.heap[largest]) {
			largest = l
		}
		if r < n && worse(t.heap[r], t.heap[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		t.heap[i], t.heap[largest] = t.heap[largest], t.heap[i]
		i = largest
	}
}

// AppendSorted appends the retained indices to dst in ascending index
// order (the order the rerank walks batches in) and returns the extended
// slice. The heap is consumed in place; call Reset before reusing the
// selector. Indices are unique, so insertion sort on the small candidate
// set is deterministic and allocation-free.
func (t *TopC) AppendSorted(dst []int32) []int32 {
	base := len(dst)
	for _, e := range t.heap {
		dst = append(dst, e.idx)
	}
	sorted := dst[base:]
	for i := 1; i < len(sorted); i++ {
		v := sorted[i]
		j := i - 1
		for j >= 0 && sorted[j] > v {
			sorted[j+1] = sorted[j]
			j--
		}
		sorted[j+1] = v
	}
	return dst
}
