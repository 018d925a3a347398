// Package texture generates the synthetic tea-brick texture dataset used in
// place of the paper's proprietary Pu'er tea-brick images (300k references,
// 354 queries, collected with industry and smartphone cameras).
//
// Each reference texture is produced by a seeded procedural model:
// multi-octave value noise for the pressed-leaf base relief plus randomly
// oriented elliptical "leaf flakes" with independent albedo — enough local
// structure that a SIFT detector finds hundreds of stable keypoints, and
// enough per-seed entropy that two different seeds share essentially no
// keypoints. Query images are the same texture re-captured: an affine warp
// (viewpoint), illumination gain/bias, sensor noise, and optional occlusion,
// with a difficulty knob controlling perturbation strength. This preserves
// the property that matters for the paper's experiments: identification must
// find the one true reference under capture perturbation, and accuracy
// degrades smoothly as features are quantized (Table 2) or reduced
// (Table 7).
package texture

import (
	"fmt"
	"math"
)

// Image is a grayscale image with float32 pixels in [0, 1], row-major.
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage allocates a black w×h image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("texture: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y); coordinates outside the image clamp to the
// border (replicate padding), which keeps filter kernels simple.
func (im *Image) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Set assigns the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float32) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// Bilinear samples the image at real-valued coordinates with bilinear
// interpolation and border clamping.
func (im *Image) Bilinear(x, y float64) float32 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := im.At(x0, y0)
	v10 := im.At(x0+1, y0)
	v01 := im.At(x0, y0+1)
	v11 := im.At(x0+1, y0+1)
	top := v00 + (v10-v00)*fx
	bot := v01 + (v11-v01)*fx
	return top + (bot-top)*fy
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Clamp01 clamps every pixel into [0, 1] in place and returns the image.
func (im *Image) Clamp01() *Image {
	for i, v := range im.Pix {
		if v < 0 {
			im.Pix[i] = 0
		} else if v > 1 {
			im.Pix[i] = 1
		}
	}
	return im
}

// Blur returns a Gaussian-blurred copy of the image (separable kernel,
// truncated at 3 sigma). It models capture defocus in the perturbation
// pipeline; sigma <= 0 returns a plain copy.
func (im *Image) Blur(sigma float64) *Image {
	if sigma <= 0 {
		return im.Clone()
	}
	radius := int(math.Ceil(3 * sigma))
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
	tmp := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var s float32
			for i := -radius; i <= radius; i++ {
				s += k[i+radius] * im.At(x+i, y)
			}
			tmp.Pix[y*im.W+x] = s
		}
	}
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var s float32
			for i := -radius; i <= radius; i++ {
				s += k[i+radius] * tmp.At(x, y+i)
			}
			out.Pix[y*im.W+x] = s
		}
	}
	return out
}
