package sift

import (
	"math"

	"texid/internal/blas"
	"texid/internal/texture"
)

// Lowe's scale-space parameters, the one setting the paper runs. The
// float64 ones are typed so that arithmetic on them rounds at each
// operation, as it did on the config fields they replace.
const (
	// baseSigma is the blur of the first scale-space level.
	baseSigma float64 = 1.6
	// initialBlur is the blur assumed already present in the input image.
	initialBlur float64 = 0.5
	// octaveScales is the number of sampled intervals per octave.
	octaveScales = 3
	// contrastThreshold rejects low-contrast extrema, on images scaled to
	// [0, 1] (Lowe uses 0.03).
	contrastThreshold float64 = 0.006
	// edgeThreshold is the maximum ratio of principal curvatures.
	edgeThreshold float64 = 10
	// borderMargin is the paper's "edge feature removing" step: Extract
	// drops every detected keypoint within this many original pixels of
	// its own image's border, before orientation and the top-k cut.
	borderMargin float64 = 4
)

// Config holds the extractor parameters that callers vary. The zero value
// keeps every feature of a pyramid as deep as the image allows; use
// DefaultConfig for the paper's budget.
type Config struct {
	// MaxOctaves caps the pyramid depth; 0 means as deep as the image
	// allows.
	MaxOctaves int
	// MaxFeatures keeps only the strongest keypoints by DoG response;
	// 0 keeps all. The paper extracts 768 features per image by default and
	// studies reducing the reference side to 384 (Table 7).
	MaxFeatures int
	// RootSIFT applies the Hellinger-kernel transform after extraction:
	// L1-normalize, element-wise square root. RootSIFT descriptors have
	// unit L2 norm, which lets the 2-NN pipeline drop the N_R/N_Q terms
	// (Algorithm 2).
	RootSIFT bool
}

// DefaultConfig returns Lowe's standard parameters with the paper's default
// feature budget.
func DefaultConfig() Config {
	return Config{
		MaxFeatures: 768,
		RootSIFT:    false,
	}
}

// Features is the output of extraction: a d×N descriptor matrix (one
// descriptor per column, matching the paper's feature-matrix layout) plus
// the keypoint geometry needed for geometric verification.
type Features struct {
	Descriptors *blas.Matrix // DescriptorDim × len(Keypoints)
	Keypoints   []Keypoint
}

// Count returns the number of extracted features.
func (f *Features) Count() int { return len(f.Keypoints) }

// Extract runs the full SIFT pipeline on im.
func Extract(im *texture.Image, cfg Config) *Features {
	a := arenaPool.Get().(*arena)
	p := buildPyramidArena(a, im, cfg)
	kps := dropBorder(detectExtrema(p, a), im.W, im.H)
	kps = assignOrientations(p, a, kps)
	kps = topKByResponse(kps, cfg.MaxFeatures)

	desc := describe(p, kps, cfg)
	// kps aliases the arena's pooled buffers; the escaping copy is the one
	// fresh keypoint allocation per extraction. The descriptor matrix never
	// aliases pyramid storage, so the levels can be recycled immediately.
	out := make([]Keypoint, len(kps))
	copy(out, kps)
	p.release(a)
	arenaPool.Put(a)
	return &Features{Descriptors: desc, Keypoints: out}
}

// describe returns the descriptor matrix of kps, RootSIFT-transformed when
// cfg asks. Descriptors are independent per keypoint and each writes its
// own column, so they are computed in parallel — output is identical at any
// GOMAXPROCS.
func describe(p *pyramid, kps []Keypoint, cfg Config) *blas.Matrix {
	desc := blas.NewMatrix(DescriptorDim, len(kps))
	blas.Parallel(len(kps), func(i int) {
		computeDescriptorInto(p, kps[i], desc.Col(i))
	})
	if cfg.RootSIFT {
		ApplyRootSIFT(desc)
	}
	return desc
}

// ExtractBatch runs Extract on every image, processing images concurrently
// (one worker per image via the blas worker pool). Each image's extraction
// is fully independent and internally deterministic, so out[i] is bitwise
// identical to Extract(ims[i], cfg) at any GOMAXPROCS. A nil entry yields a
// nil entry.
func ExtractBatch(ims []*texture.Image, cfg Config) []*Features {
	out := make([]*Features, len(ims))
	blas.Parallel(len(ims), func(i int) {
		if ims[i] != nil {
			out[i] = Extract(ims[i], cfg)
		}
	})
	return out
}

// ApplyRootSIFT transforms descriptors in place: each column is
// L1-normalized and square-rooted element-wise. The Euclidean distance
// between RootSIFT vectors equals the Hellinger-kernel distance between the
// original SIFT histograms, and every transformed vector has unit L2 norm —
// so ρ²(r, q) = 2 − 2·rᵀq, eliminating Algorithm 1's norm vectors.
func ApplyRootSIFT(desc *blas.Matrix) {
	for j := 0; j < desc.Cols; j++ {
		col := desc.Col(j)
		var l1 float64
		for _, v := range col {
			l1 += math.Abs(float64(v))
		}
		if l1 == 0 {
			continue
		}
		inv := 1 / l1
		for i, v := range col {
			col[i] = float32(math.Sqrt(math.Abs(float64(v)) * inv))
		}
	}
}

// ExtractAsymmetric extracts reference features with budget m and query
// features with budget n from the same configuration, implementing the
// asymmetric extraction of Sec. 7. It returns the adjusted configs.
func ExtractAsymmetric(cfg Config, m, n int) (refCfg, queryCfg Config) {
	refCfg = cfg
	refCfg.MaxFeatures = m
	queryCfg = cfg
	queryCfg.MaxFeatures = n
	return refCfg, queryCfg
}
