package texture

import (
	"math"
	"math/rand"
)

// Perturbation models one re-capture of a texture: a similarity warp
// (viewpoint change), photometric gain/bias (illumination), additive sensor
// noise, and an optional rectangular occlusion. Applying a Perturbation to a
// reference image yields a query image whose ground-truth identity is the
// reference.
type Perturbation struct {
	Rotate     float64 // radians, about the image center
	Scale      float64 // isotropic scale factor
	ShearX     float64 // horizontal shear coefficient (viewpoint skew)
	TranslateX float64 // pixels
	TranslateY float64 // pixels
	Gain       float64 // multiplicative illumination change
	Bias       float64 // additive illumination change
	BlurSigma  float64 // capture defocus/motion blur (Gaussian sigma, px)
	NoiseSigma float64 // std-dev of additive Gaussian sensor noise
	OcclusionW float64 // occluded square side, as a fraction of image side
	NoiseSeed  int64   // seed for the sensor-noise field
}

// RandomPerturbation draws a perturbation whose strength grows with
// difficulty in [0, 1]. difficulty 0 is a near-identical re-capture;
// difficulty 1 combines a large viewpoint change with strong illumination
// shift, noise, and occlusion — hard enough that identification with
// reduced feature counts starts to fail, which is what Tables 2 and 7
// measure.
func RandomPerturbation(rng *rand.Rand, difficulty float64) Perturbation {
	if difficulty < 0 {
		difficulty = 0
	}
	if difficulty > 1 {
		difficulty = 1
	}
	d := difficulty
	sym := func(scale float64) float64 { return (rng.Float64()*2 - 1) * scale }
	return Perturbation{
		Rotate:     sym(0.45 * d),           // up to ~26°
		Scale:      1 + sym(0.22*d),         // ±22% zoom
		ShearX:     sym(0.15 * d),           // viewpoint skew
		TranslateX: sym(10 * d),             // pixels
		TranslateY: sym(10 * d),             // pixels
		Gain:       1 + sym(0.35*d),         // ±35% illumination gain
		Bias:       sym(0.12 * d),           // illumination bias
		BlurSigma:  d * rng.Float64() * 2.8, // smartphone defocus/motion blur
		NoiseSigma: 0.01 + 0.07*d,           // sensor noise
		OcclusionW: 0.28 * d * rng.Float64(),
		NoiseSeed:  rng.Int63(),
	}
}

// Apply renders the perturbed re-capture of im. The geometric warp is
// applied by inverse mapping with bilinear sampling about the image center,
// so the output has the same dimensions as the input.
func (p Perturbation) Apply(im *Image) *Image {
	out := NewImage(im.W, im.H)
	cx := float64(im.W-1) / 2
	cy := float64(im.H-1) / 2

	scale := p.Scale
	if scale == 0 {
		scale = 1
	}
	// Forward transform: rotate·scale·shear then translate. We invert it to
	// map destination pixels back into the source image.
	cosT, sinT := math.Cos(p.Rotate), math.Sin(p.Rotate)
	// Forward matrix M = R(θ)·S(scale)·Shear(shx):
	// [ s·cos  s·(cos·shx − sin) ]
	// [ s·sin  s·(sin·shx + cos) ]
	a := scale * cosT
	b := scale * (cosT*p.ShearX - sinT)
	c := scale * sinT
	d := scale * (sinT*p.ShearX + cosT)
	det := a*d - b*c
	if det == 0 {
		det = 1e-12
	}
	ia, ib := d/det, -b/det
	ic, id := -c/det, a/det

	gain := p.Gain
	if gain == 0 {
		gain = 1
	}

	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			dx := float64(x) - cx - p.TranslateX
			dy := float64(y) - cy - p.TranslateY
			sx := ia*dx + ib*dy + cx
			sy := ic*dx + id*dy + cy
			out.Pix[y*im.W+x] = float32(float64(im.Bilinear(sx, sy))*gain + p.Bias)
		}
	}

	// Defocus happens in the optics, before the sensor adds noise.
	if p.BlurSigma > 0 {
		out = out.Blur(p.BlurSigma)
	}
	rng := rand.New(rand.NewSource(p.NoiseSeed))
	if p.NoiseSigma > 0 {
		for i := range out.Pix {
			out.Pix[i] += float32(rng.NormFloat64() * p.NoiseSigma)
		}
	}

	if p.OcclusionW > 0 {
		side := int(p.OcclusionW * float64(im.W))
		if side > 0 {
			ox := rng.Intn(im.W - side + 1)
			oy := rng.Intn(im.H - side + 1)
			for y := oy; y < oy+side; y++ {
				for x := ox; x < ox+side; x++ {
					out.Pix[y*im.W+x] = 0.05 // dark occluder (e.g. a label)
				}
			}
		}
	}

	return out.Clamp01()
}
