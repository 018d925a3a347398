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
//
// Lowe's parameters — base blur 1.6, assumed camera blur 0.5, three
// intervals per octave, the contrast and edge thresholds — and the input
// upsampling are constants: the paper runs one SIFT setting, and its
// determinism rests on fixed arithmetic. Config holds what the
// experiments vary: the feature budget, the pyramid depth and RootSIFT.
package sift

import (
	"math"
	"sync"

	"texid/internal/blas"
	"texid/internal/texture"
)

// pyramid holds the Gaussian and DoG scale-space of one image. The top
// two Gaussian levels of each octave, which only the DoG uses, are not
// kept: their entries in gauss are nil.
type pyramid struct {
	nOctaves int
	gauss    [][]*texture.Image // octaveScales+3 Gaussian levels per octave
	dog      [][]*texture.Image
	sigmas   []float64 // per-level blur within an octave
}

// coordScale maps an octave-0 pixel to an original one: the pyramid is
// built on the input upsampled 2x (Lowe's "-1 octave"). Fine pressed-leaf
// detail lives at 1–3 px, so upsampling roughly quadruples the keypoint
// yield on texture images.
const coordScale = 0.5

// arena recycles the scale-space image buffers across extractions. Every
// image taken from it is fully overwritten by its producer (blur,
// downsample, upsample, and the DoG rows of the blur that makes the level
// above), so reuse cannot perturb pixel values.
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
	tmp  []float32 // the blur's padded scratch, grown to the largest asked for

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

// scratch returns two buffers of n and m floats with undefined contents,
// for one blur's padded rows: both are carved from one slice the arena
// keeps and grows to the largest blur it has run, so they never take a
// level's buffer, and no level-sized buffer has to exist for them. They
// stay valid until the next scratch call. A nil arena allocates.
func (a *arena) scratch(n, m int) ([]float32, []float32) {
	var buf []float32
	if a == nil {
		buf = make([]float32, n+m)
	} else {
		if cap(a.tmp) < n+m {
			a.tmp = make([]float32, n+m)
		}
		buf = a.tmp[:n+m]
	}
	return buf[:n:n], buf[n:]
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
	return blurArena(nil, im, sigma, nil)
}

// BlurImage exposes the separable Gaussian blur for benchmarks and tools.
func BlurImage(im *texture.Image, sigma float64) *texture.Image {
	return blur(im, sigma)
}

// blurArena is blur drawing its buffers from a, on the native tier where
// the host has it (useAVX512) and the portable loops elsewhere. A non-nil
// dog, im's size, receives the difference of Gaussians out − im, pixel by
// pixel as a separate subtraction would give it. dog may be im itself:
// each DoG row then replaces its input row, which the vertical pass reads
// only for that subtraction.
func blurArena(a *arena, im *texture.Image, sigma float64, dog *texture.Image) *texture.Image {
	return blurTiered(a, im, sigma, useAVX512, dog)
}

// blurTiered is blurArena with the tier chosen by the caller: native runs
// each row's 16-lane blocks through convH and each output row's through
// convV, and the portable loops take the W%16 column tail; with native
// false they take every column. Both passes parallelize over fixed row
// blocks.
//
// Neither pass clamps a tap. The horizontal pass reads each source row
// from pad, a copy with radius repeats of its edge pixels on either side,
// and writes tmp, which holds radius repeats of its first and last rows
// above and below the image's. A clamped tap reads the edge pixel, and the
// padded buffer holds that pixel at the tap's place, so every pixel is the
// same chain as the nested-loop filter with clamped taps: each tap's
// product rounded (the float32 conversions keep the compiler from fusing
// it into an FMA), then added in ascending tap order. The result is
// bitwise identical on either tier and at any GOMAXPROCS. The vertical
// pass writes a non-nil dog's rows in its own row blocks, each once its
// out row is done, so the DoG level needs no pass or parallel launch of
// its own.
func blurTiered(a *arena, im *texture.Image, sigma float64, native bool, dog *texture.Image) *texture.Image {
	if sigma <= 0 {
		out := a.get(im.W, im.H)
		copy(out.Pix, im.Pix)
		if dog != nil {
			for i, v := range out.Pix {
				dog.Pix[i] = v - im.Pix[i]
			}
		}
		return out
	}
	k := gaussianKernel(sigma)
	radius := len(k) / 2
	W, H := im.W, im.H
	blocks := (H + rowBlock - 1) / rowBlock
	n := 0 // columns on the native tier: whole 16-lane blocks
	if native {
		n = W &^ 15
	}

	// Horizontal pass: tmp row radius+y is sum_i k[i]·pad[x+i], from +0,
	// pad being row y with its edges repeated; one pad row per row block.
	padW := W + 2*radius
	tmp, pad := a.scratch(W*(H+2*radius), padW*blocks)
	blas.Parallel(blocks, func(b int) {
		row := pad[b*padW : (b+1)*padW]
		for y := b * rowBlock; y < min((b+1)*rowBlock, H); y++ {
			src := im.Pix[y*W : y*W+W]
			copy(row[radius:], src)
			fill(row[:radius], src[0])
			fill(row[radius+W:], src[W-1])
			dst := tmp[(radius+y)*W : (radius+y+1)*W]
			if n > 0 {
				convH(dst[:n], row[:n+2*radius], k)
			}
			for x := n; x < W; x++ {
				var s float32
				for i, kv := range k {
					s += float32(kv * row[x+i])
				}
				dst[x] = s
			}
		}
		// The repeated rows copy the first and last image rows, which
		// the first and last row blocks have just written.
		if b == 0 {
			for y := range radius {
				copy(tmp[y*W:(y+1)*W], tmp[radius*W:(radius+1)*W])
			}
		}
		if b == blocks-1 {
			for y := radius + H; y < H+2*radius; y++ {
				copy(tmp[y*W:(y+1)*W], tmp[(radius+H-1)*W:(radius+H)*W])
			}
		}
	})

	// Vertical pass: out[y][x] = sum_i k[i]·tmp[y+i][x], from k[0]·tmp. An
	// output row's source rows are W apart, so convV takes them as a base
	// and a stride.
	out := a.get(W, H)
	blas.Parallel(blocks, func(b int) {
		for y := b * rowBlock; y < min((b+1)*rowBlock, H); y++ {
			dst := out.Pix[y*W : y*W+W]
			src := tmp[y*W : (y+2*radius+1)*W]
			var d, in []float32
			if dog != nil {
				d, in = dog.Pix[y*W:y*W+W], im.Pix[y*W:y*W+W]
			}
			if n > 0 {
				convV(dst[:n], src[:2*radius*W+n], W, k, d[:min(n, len(d))], in[:min(n, len(in))])
			}
			vblurCols(dst, src, n, k, d, in)
		}
	})
	return out
}

// fill sets every element of dst to v.
func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// vblurCols writes columns x0..len(dst)−1 of one output row: the vertical
// taps of src's rows, len(dst) apart, accumulated row-wise in ascending tap
// order (the same per-pixel chain as a scalar loop over i). A non-nil dog
// receives dst − in over the same columns.
func vblurCols(dst, src []float32, x0 int, k []float32, dog, in []float32) {
	W := len(dst)
	out := dst[x0:]
	for x, v := range src[x0:W] {
		out[x] = k[0] * v
	}
	for i := 1; i < len(k); i++ {
		kv := k[i]
		for x, v := range src[i*W+x0 : i*W+W] {
			out[x] += float32(kv * v)
		}
	}
	if dog != nil {
		for x := x0; x < W; x++ {
			dog[x] = dst[x] - in[x]
		}
	}
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

// upsample2x doubles the image with bilinear interpolation (Lowe's
// "-1 octave" base), over the blur's fixed row blocks. Output pixel (x, y)
// is im.Bilinear(x/2, y/2) bit for bit: its fractions are 0 or 0.5, and
// its taps are source pixels (x/2, y/2) and one right and one down,
// clamped to the last column and row, which Bilinear's At clamps too. Each
// output row reads two source rows, and each source pixel pair makes two
// output pixels with Bilinear's expression. The output is the same at any
// GOMAXPROCS.
func upsample2x(a *arena, im *texture.Image) *texture.Image {
	W, H := im.W, im.H
	out := a.get(2*W, 2*H)
	frac := [2]float32{0, 0.5}
	blas.Parallel((out.H+rowBlock-1)/rowBlock, func(b int) {
		for y := b * rowBlock; y < min((b+1)*rowBlock, out.H); y++ {
			y0 := y / 2
			fy := frac[y&1]
			r0 := im.Pix[y0*W : y0*W+W]
			r1 := im.Pix[min(y0+1, H-1)*W:][:W]
			dst := out.Pix[y*out.W : (y+1)*out.W]
			for x0 := range r0 {
				x1 := min(x0+1, W-1)
				v00, v10, v01, v11 := r0[x0], r0[x1], r1[x0], r1[x1]
				for j, fx := range frac {
					top := v00 + (v10-v00)*fx
					bot := v01 + (v11-v01)*fx
					dst[2*x0+j] = top + (bot-top)*fy
				}
			}
		}
	})
	return out
}

// buildPyramidArena constructs the Gaussian and DoG scale spaces, drawing
// every level from a; the caller recycles them with pyramid.release once
// detection is done.
func buildPyramidArena(a *arena, im *texture.Image) *pyramid {
	const s = octaveScales
	levels := s + 3

	im = upsample2x(a, im)
	// Upsampling doubles the assumed camera blur.
	const upBlur = 2 * initialBlur

	// Number of octaves: stop when the octave base is smaller than 16 px.
	minSide := im.W
	if im.H < minSide {
		minSide = im.H
	}
	nOct := 1
	for side := minSide / 2; side >= 16; side /= 2 {
		nOct++
	}

	p := &pyramid{
		nOctaves: nOct,
		gauss:    make([][]*texture.Image, nOct),
		dog:      make([][]*texture.Image, nOct),
		sigmas:   make([]float64, levels),
	}

	// Per-level incremental blurs: level i has total blur baseSigma·2^(i/s);
	// sigmas[i] is the incremental blur applied on top of level i-1.
	k := math.Pow(2, 1/float64(s))
	p.sigmas[0] = baseSigma
	prev := baseSigma
	for i := 1; i < levels; i++ {
		total := baseSigma * math.Pow(k, float64(i))
		p.sigmas[i] = math.Sqrt(total*total - prev*prev)
		prev = total
	}

	// Base image: assume the camera already applied upBlur; add the
	// difference needed to reach baseSigma. The upsampled input is
	// arena-owned and goes back once blurred.
	base := blurArena(a, im, math.Sqrt(baseSigma*baseSigma-upBlur*upBlur), nil)
	a.put(im)

	for o := 0; o < nOct; o++ {
		p.gauss[o] = make([]*texture.Image, levels)
		if o == 0 {
			p.gauss[o][0] = base
		} else {
			// Level s of the previous octave has blur 2·sigma, the right
			// starting point after downsampling.
			p.gauss[o][0] = downsampleArena(a, p.gauss[o-1][s])
		}
		// DoG level i−1 is gauss[i] − gauss[i−1], written as gauss[i]'s
		// rows are blurred. The top two Gaussian levels serve only the
		// DoG, so the top blur writes the top DoG level over its own input
		// and its output goes straight back to the arena: the arena then
		// holds no more buffers at its peak than separate subtractions
		// needed. Those two levels' entries stay nil.
		p.dog[o] = make([]*texture.Image, levels-1)
		for i := 1; i < levels-1; i++ {
			prev := p.gauss[o][i-1]
			p.dog[o][i-1] = a.get(prev.W, prev.H)
			p.gauss[o][i] = blurArena(a, prev, p.sigmas[i], p.dog[o][i-1])
		}
		top := p.gauss[o][levels-2]
		a.put(blurArena(a, top, p.sigmas[levels-1], top))
		p.dog[o][levels-2], p.gauss[o][levels-2] = top, nil
	}
	return p
}
