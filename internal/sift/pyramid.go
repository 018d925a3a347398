// Package sift implements the SIFT local-feature pipeline used by the
// texture-identification system: Gaussian scale-space construction,
// difference-of-Gaussians keypoint detection with subpixel refinement,
// contrast and edge-response filtering, orientation assignment, 128-D
// descriptor extraction in the OpenCV norm-512 convention, and the RootSIFT
// transform (Arandjelović & Zisserman) that the paper adopts so the 2-NN
// distance computation simplifies to Algorithm 2.
//
// The implementation follows Lowe's 2004 paper. It is a from-scratch
// substitute for the OpenCV SIFT extractor used by the authors; descriptor
// statistics (non-negative histograms, L2 norm 512) match OpenCV's, which
// is what drives the FP16 scale-factor behaviour studied in Table 2.
package sift

import (
	"math"
	"sync"

	"texid/internal/blas"
	"texid/internal/texture"
)

// pyramid holds the Gaussian and DoG scale-space of one image.
type pyramid struct {
	nOctaves   int
	nScales    int // intervals per octave (s); each octave has s+3 Gaussian levels
	gauss      [][]*texture.Image
	dog        [][]*texture.Image
	sigmas     []float64 // per-level blur within an octave
	baseSigma  float64
	coordScale float64 // octave-0 pixel -> original pixel (0.5 when upsampled)
}

// arena recycles the scale-space image buffers across extractions. Every
// image taken from it is fully overwritten by its producer (blur,
// downsample, subtract, upsample), so reuse cannot perturb pixel values.
// An arena is not safe for concurrent use; each Extract call owns one.
//
// Beyond the pyramid levels, the arena pools the detection and
// orientation working sets: the per-slab keypoint buffers and their
// concatenations, and the per-keypoint orientation sets. These hold the
// bulk of the extractor's former steady-state allocations (one-plus per
// keypoint); pooling them leaves only the escaping outputs — the
// descriptor matrix and the final keypoint slice — as fresh allocations.
type arena struct {
	free []*texture.Image

	slabs   []slabRef     // DoG slab list
	slabKps [][]Keypoint  // per-slab detection results
	kps     []Keypoint    // detection concatenation
	sets    []orientedSet // per-keypoint orientation scratch
	okps    []Keypoint    // orientation concatenation
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// get returns a w×h image with undefined contents, reusing a free buffer
// when one is large enough. A nil arena always allocates.
func (a *arena) get(w, h int) *texture.Image {
	if a == nil {
		return texture.NewImage(w, h)
	}
	need := w * h
	for i, im := range a.free {
		if cap(im.Pix) >= need {
			last := len(a.free) - 1
			a.free[i] = a.free[last]
			a.free = a.free[:last]
			im.W, im.H, im.Pix = w, h, im.Pix[:need]
			return im
		}
	}
	return texture.NewImage(w, h)
}

// put returns an image to the arena for reuse.
func (a *arena) put(im *texture.Image) {
	if a == nil || im == nil {
		return
	}
	a.free = append(a.free, im)
}

// release returns every pyramid level to the arena. The pyramid must not be
// used afterwards.
func (p *pyramid) release(a *arena) {
	for o := range p.gauss {
		for _, im := range p.gauss[o] {
			a.put(im)
		}
		for _, im := range p.dog[o] {
			a.put(im)
		}
	}
	p.gauss, p.dog = nil, nil
}

// kernelCache memoizes gaussianKernel per sigma: the pyramid re-derives the
// same handful of incremental sigmas for every image, so each kernel is
// computed once per process. Cached kernels are shared read-only.
var kernelCache sync.Map // float64 -> []float32

// gaussianKernel returns a normalized 1-D Gaussian kernel for the given
// sigma, truncated at 4 sigma. The returned slice is shared and must not be
// modified.
func gaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	if v, ok := kernelCache.Load(sigma); ok {
		return v.([]float32)
	}
	radius := int(math.Ceil(4 * sigma))
	if radius < 1 {
		radius = 1
	}
	k := make([]float32, 2*radius+1)
	var sum float64
	inv := -0.5 / (sigma * sigma)
	for i := -radius; i <= radius; i++ {
		v := math.Exp(float64(i*i) * inv)
		k[i+radius] = float32(v)
		sum += v
	}
	for i := range k {
		k[i] = float32(float64(k[i]) / sum)
	}
	v, _ := kernelCache.LoadOrStore(sigma, k)
	return v.([]float32)
}

// rowBlock is the unit of parallel work in the blur passes: a fixed-size run
// of image rows, so the partition depends only on the image height (never on
// worker count) and every pixel keeps its sequential accumulation order.
const rowBlock = 32

// blur applies a separable Gaussian blur.
func blur(im *texture.Image, sigma float64) *texture.Image {
	return blurArena(nil, im, sigma)
}

// BlurImage exposes the separable Gaussian blur for benchmarks and tools.
func BlurImage(im *texture.Image, sigma float64) *texture.Image {
	return blur(im, sigma)
}

// blurArena is blur drawing its two image buffers from a. Both passes
// parallelize over fixed row blocks; interior pixels take a slice-indexed
// fast path while border pixels keep the clamped At lookup, accumulating in
// the same tap order either way, so the result is bitwise identical to the
// straightforward nested-loop filter at any GOMAXPROCS.
func blurArena(a *arena, im *texture.Image, sigma float64) *texture.Image {
	if sigma <= 0 {
		out := a.get(im.W, im.H)
		copy(out.Pix, im.Pix)
		return out
	}
	k := gaussianKernel(sigma)
	radius := len(k) / 2
	W, H := im.W, im.H

	// Horizontal pass: tmp[y][x] = sum_i k[i]·im[y][x-r+i].
	tmp := a.get(W, H)
	blas.Parallel((H+rowBlock-1)/rowBlock, func(b int) {
		for y := b * rowBlock; y < min((b+1)*rowBlock, H); y++ {
			row := im.Pix[y*W : y*W+W]
			dst := tmp.Pix[y*W : y*W+W]
			lo, hi := radius, W-radius
			if hi < lo {
				lo, hi = W, W // kernel wider than the row: clamp everywhere
			}
			for x := 0; x < lo; x++ {
				var s float32
				for i := -radius; i <= radius; i++ {
					s += k[i+radius] * im.At(x+i, y)
				}
				dst[x] = s
			}
			for x := lo; x < hi; x++ {
				src := row[x-radius : x+radius+1]
				var s float32
				for i, kv := range k {
					s += kv * src[i]
				}
				dst[x] = s
			}
			for x := hi; x < W; x++ {
				var s float32
				for i := -radius; i <= radius; i++ {
					s += k[i+radius] * im.At(x+i, y)
				}
				dst[x] = s
			}
		}
	})

	// Vertical pass: out[y][x] = sum_i k[i]·tmp[y-r+i][x], accumulated
	// row-wise in ascending tap order (the same per-pixel chain as a
	// scalar loop over i) with the source row index clamped at the border.
	out := a.get(W, H)
	blas.Parallel((H+rowBlock-1)/rowBlock, func(b int) {
		for y := b * rowBlock; y < min((b+1)*rowBlock, H); y++ {
			dst := out.Pix[y*W : y*W+W]
			src := tmp.Pix[clampRow(y-radius, H)*W:]
			src = src[:W]
			for x, v := range src {
				dst[x] = k[0] * v
			}
			for i := 1; i < len(k); i++ {
				src := tmp.Pix[clampRow(y-radius+i, H)*W:]
				src = src[:W]
				kv := k[i]
				for x, v := range src {
					dst[x] += kv * v
				}
			}
		}
	})
	a.put(tmp)
	return out
}

// clampRow clamps a row index to [0, h).
func clampRow(y, h int) int {
	if y < 0 {
		return 0
	}
	if y >= h {
		return h - 1
	}
	return y
}

// downsampleArena halves the image by taking every other pixel, as in Lowe's
// pyramid construction (the source is already blurred past the Nyquist rate).
func downsampleArena(a *arena, im *texture.Image) *texture.Image {
	w, h := im.W/2, im.H/2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := a.get(w, h)
	for y := 0; y < h; y++ {
		src := im.Pix[2*y*im.W:]
		dst := out.Pix[y*w : y*w+w]
		for x := range dst {
			dst[x] = src[2*x]
		}
	}
	return out
}

// subtractArena returns a-b pixel-wise; the images must have equal dimensions.
func subtractArena(ar *arena, a, b *texture.Image) *texture.Image {
	out := ar.get(a.W, a.H)
	for i := range a.Pix {
		out.Pix[i] = a.Pix[i] - b.Pix[i]
	}
	return out
}

// upsample2x doubles the image with bilinear interpolation (Lowe's
// "-1 octave" base).
func upsample2x(a *arena, im *texture.Image) *texture.Image {
	out := a.get(im.W*2, im.H*2)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			out.Pix[y*out.W+x] = im.Bilinear(float64(x)/2, float64(y)/2)
		}
	}
	return out
}

// buildPyramidArena constructs the Gaussian and DoG scale spaces, drawing
// every level from a; the caller recycles them with pyramid.release once
// detection is done.
func buildPyramidArena(a *arena, im *texture.Image, cfg Config) *pyramid {
	s := cfg.OctaveScales
	levels := s + 3

	coordScale := 1.0
	initialBlur := cfg.InitialBlur
	upsampled := false
	if cfg.Upsample {
		im = upsample2x(a, im)
		upsampled = true
		coordScale = 0.5
		initialBlur *= 2 // upsampling doubles the assumed camera blur
	}

	// Number of octaves: stop when the octave base is smaller than 16 px.
	minSide := im.W
	if im.H < minSide {
		minSide = im.H
	}
	nOct := 1
	for side := minSide / 2; side >= 16; side /= 2 {
		nOct++
	}
	if cfg.MaxOctaves > 0 && nOct > cfg.MaxOctaves {
		nOct = cfg.MaxOctaves
	}

	p := &pyramid{
		nOctaves:   nOct,
		nScales:    s,
		gauss:      make([][]*texture.Image, nOct),
		dog:        make([][]*texture.Image, nOct),
		sigmas:     make([]float64, levels),
		baseSigma:  cfg.Sigma,
		coordScale: coordScale,
	}

	// Per-level incremental blurs: level i has total blur sigma·2^(i/s);
	// sigmas[i] is the incremental blur applied on top of level i-1.
	k := math.Pow(2, 1/float64(s))
	p.sigmas[0] = cfg.Sigma
	prev := cfg.Sigma
	for i := 1; i < levels; i++ {
		total := cfg.Sigma * math.Pow(k, float64(i))
		p.sigmas[i] = math.Sqrt(total*total - prev*prev)
		prev = total
	}

	// Base image: assume the camera already applied InitialBlur; add the
	// difference needed to reach Sigma. The pyramid must own its level-0
	// storage (release recycles it), so a non-upsampled, non-blurred input
	// is copied rather than aliased.
	var base *texture.Image
	if cfg.Sigma > initialBlur {
		base = blurArena(a, im, math.Sqrt(cfg.Sigma*cfg.Sigma-initialBlur*initialBlur))
		if upsampled {
			a.put(im)
		}
	} else if upsampled {
		base = im // already arena-owned
	} else {
		base = a.get(im.W, im.H)
		copy(base.Pix, im.Pix)
	}

	for o := 0; o < nOct; o++ {
		p.gauss[o] = make([]*texture.Image, levels)
		if o == 0 {
			p.gauss[o][0] = base
		} else {
			// Level s of the previous octave has blur 2·sigma, the right
			// starting point after downsampling.
			p.gauss[o][0] = downsampleArena(a, p.gauss[o-1][s])
		}
		for i := 1; i < levels; i++ {
			p.gauss[o][i] = blurArena(a, p.gauss[o][i-1], p.sigmas[i])
		}
		p.dog[o] = make([]*texture.Image, levels-1)
		for i := 0; i < levels-1; i++ {
			p.dog[o][i] = subtractArena(a, p.gauss[o][i+1], p.gauss[o][i])
		}
	}
	return p
}
