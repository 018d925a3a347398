package main

import (
	"math"

	"texid/internal/blas"
	"texid/internal/sift"
)

// Descriptor shapes of the production configuration (Sec. 7): 128-D
// RootSIFT, 384 reference and 768 query features.
const (
	dim       = sift.DescriptorDim
	refFeats  = 384
	qryFeats  = 768
	noiseAmp  = 0.02 // per-element recapture noise before renormalising
	kpLo      = 16.0 // keypoints stay clear of the EdgeMargin=4 border band
	kpHi      = 240.0
	poolSize  = 32 // pooled queries per workload
	batchOf   = 4  // queries per /v1/search/batch request
	libRefs   = 8
	libPool   = 16
	libDiffic = 0.3
)

// rng is splitmix64: a few ns per value, so the 126 M elements of the
// 2560-reference workload generate in well under a second, and the stream
// is a pure function of the seed on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float32 { return float32(r.next()>>40) / (1 << 24) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// subSeed derives an independent stream for one (purpose, index) pair, so
// reference k is the same matrix whichever workload or order asks for it.
func subSeed(seed int64, purpose, index int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 + uint64(purpose)<<32 + uint64(index))
	r.next()
	return r
}

const (
	purposeRef = iota + 1
	purposeQuery
	purposeKps
	purposePick
)

// normalise scales col to unit L2 norm (RootSIFT descriptors are unit-norm).
func normalise(col []float32) {
	var s float64
	for _, v := range col {
		s += float64(v) * float64(v)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range col {
		col[i] *= inv
	}
}

// randomColumns fills columns [from, to) of m with non-negative unit vectors.
func randomColumns(m *blas.Matrix, from, to int, r *rng) {
	for j := from; j < to; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = r.float()
		}
		normalise(col)
	}
}

// refDescriptors is version `version` of reference `id`: a dim×refFeats
// RootSIFT-like matrix. Version 0 is what set-up enrolls; the churn writer
// re-enrolls higher versions.
func refDescriptors(seed int64, id, version int) *blas.Matrix {
	r := subSeed(seed, purposeRef, id+version<<20)
	m := blas.NewMatrix(dim, refFeats)
	randomColumns(m, 0, refFeats, &r)
	return m
}

// queryDescriptors is a noisy recapture of ref: its refFeats columns each
// perturbed by ±noiseAmp per element and renormalised, followed by
// qryFeats-refFeats distractor columns that match nothing.
func queryDescriptors(seed int64, index int, ref *blas.Matrix) *blas.Matrix {
	r := subSeed(seed, purposeQuery, index)
	q := blas.NewMatrix(dim, qryFeats)
	for j := 0; j < refFeats; j++ {
		src, dst := ref.Col(j), q.Col(j)
		for i, v := range src {
			v += (2*r.float() - 1) * noiseAmp
			if v < 0 {
				v = 0
			}
			dst[i] = v
		}
		normalise(dst)
	}
	randomColumns(q, refFeats, qryFeats, &r)
	return q
}

// keypoints returns n synthetic keypoints inside [kpLo, kpHi]². A record
// without keypoints decodes to an empty non-nil slice, every correspondence
// then fails the edge filter and the reference scores 0 — a silent wrong
// answer, which is why every record here carries them.
func keypoints(seed int64, index, n int) []sift.Keypoint {
	r := subSeed(seed, purposeKps, index)
	kps := make([]sift.Keypoint, n)
	for i := range kps {
		kps[i] = sift.Keypoint{
			X:     kpLo + float64(r.float())*(kpHi-kpLo),
			Y:     kpLo + float64(r.float())*(kpHi-kpLo),
			Sigma: 1.6,
		}
	}
	return kps
}
