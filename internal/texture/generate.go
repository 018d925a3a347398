package texture

import (
	"math"
	"math/rand"
)

// The procedural texture model: six value-noise octaves for the
// pressed-leaf base relief, leaf flakes stamped over it, and fibre grain.
// The float64 ones are typed so that arithmetic on them rounds at each
// operation, as it did on the GenParams fields they replace.
const (
	// noiseOctaves is the number of value-noise octaves for the base relief.
	noiseOctaves = 6
	// baseFreq is the lattice frequency of the first octave, in cells per
	// image side.
	baseFreq float64 = 6
	// flakeMin and flakeMax bound the flake semi-major axis in pixels.
	flakeMin float64 = 1
	flakeMax float64 = 6
	// flakeContrast scales the flake albedo deviation from the base.
	flakeContrast float64 = 0.8
	// grain is the amplitude of per-pixel fibre grain, the fine detail a
	// camera resolves on a pressed-leaf surface. Grain is part of the
	// texture identity (it is generated from the seed), not sensor noise.
	grain float64 = 0.06
)

// GenParams controls the procedural texture model.
type GenParams struct {
	// Size is the square image side in pixels.
	Size int
	// Flakes is the number of leaf-flake ellipses stamped onto the base.
	Flakes int
}

// DefaultGenParams returns the model used throughout the experiments:
// a 256×256 texture with dense leaf flakes, tuned so the SIFT detector
// finds several hundred keypoints per image.
func DefaultGenParams() GenParams {
	return GenParams{Size: 256, Flakes: 2000}
}

// hash2 is an integer lattice hash producing a deterministic pseudo-random
// value in [0,1) for lattice point (x, y) under a given seed.
func hash2(x, y int64, seed int64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 33
	return float64(h>>11) / float64(1<<53)
}

// smoothstep is the C¹ fade used for value-noise interpolation.
func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// valueNoise evaluates seeded 2-D value noise at (x, y) in lattice units.
func valueNoise(x, y float64, seed int64) float64 {
	x0 := math.Floor(x)
	y0 := math.Floor(y)
	tx := smoothstep(x - x0)
	ty := smoothstep(y - y0)
	ix, iy := int64(x0), int64(y0)
	v00 := hash2(ix, iy, seed)
	v10 := hash2(ix+1, iy, seed)
	v01 := hash2(ix, iy+1, seed)
	v11 := hash2(ix+1, iy+1, seed)
	top := v00 + (v10-v00)*tx
	bot := v01 + (v11-v01)*tx
	return top + (bot-top)*ty
}

// Generate renders the texture for the given seed. Identical (seed, params)
// pairs always produce identical images, which is how the dataset assigns
// each reference texture a stable identity.
func Generate(seed int64, p GenParams) *Image {
	im := NewImage(p.Size, p.Size)
	size := float64(p.Size)

	// Multi-octave value noise: the pressed-leaf base relief.
	for y := 0; y < p.Size; y++ {
		for x := 0; x < p.Size; x++ {
			var v, amp, norm float64
			freq := baseFreq
			amp = 1
			for o := 0; o < noiseOctaves; o++ {
				v += amp * valueNoise(float64(x)/size*freq, float64(y)/size*freq, seed+int64(o)*7919)
				norm += amp
				amp *= 0.65
				freq *= 2.1
			}
			im.Pix[y*p.Size+x] = float32(v / norm)
		}
	}

	// Leaf flakes: oriented ellipses with independent albedo, soft edges.
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	for f := 0; f < p.Flakes; f++ {
		cx := rng.Float64() * size
		cy := rng.Float64() * size
		a := flakeMin + rng.Float64()*(flakeMax-flakeMin) // semi-major
		b := a * (0.25 + rng.Float64()*0.5)               // semi-minor
		theta := rng.Float64() * math.Pi
		albedo := float32((rng.Float64()*2 - 1) * flakeContrast)
		cosT, sinT := math.Cos(theta), math.Sin(theta)

		x0, x1 := int(cx-a-1), int(cx+a+1)
		y0, y1 := int(cy-a-1), int(cy+a+1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				dx := float64(x) - cx
				dy := float64(y) - cy
				u := (dx*cosT + dy*sinT) / a
				v := (-dx*sinT + dy*cosT) / b
				r2 := u*u + v*v
				if r2 >= 1 {
					continue
				}
				// Soft falloff toward the flake edge keeps gradients
				// well-behaved for the DoG detector.
				w := float32(1 - r2)
				if x >= 0 && x < p.Size && y >= 0 && y < p.Size {
					im.Pix[y*p.Size+x] += albedo * w
				}
			}
		}
	}

	// Fibre grain: seeded per-pixel detail that survives re-capture (it is
	// resampled by the query warp like any other surface detail).
	for y := 0; y < p.Size; y++ {
		for x := 0; x < p.Size; x++ {
			g := hash2(int64(x), int64(y), seed^0x3C6EF372)
			im.Pix[y*p.Size+x] += float32((g*2 - 1) * grain)
		}
	}

	// Standardize and squash with a logistic curve instead of min-max
	// normalization: with thousands of overlapping flakes the extreme
	// pixels are rare outliers, and min-max scaling would crush the local
	// contrast the keypoint detector depends on.
	var mean, m2 float64
	for _, v := range im.Pix {
		mean += float64(v)
	}
	mean /= float64(len(im.Pix))
	for _, v := range im.Pix {
		d := float64(v) - mean
		m2 += d * d
	}
	std := math.Sqrt(m2 / float64(len(im.Pix)))
	if std < 1e-9 {
		std = 1
	}
	for i, v := range im.Pix {
		z := (float64(v) - mean) / (1.5 * std)
		im.Pix[i] = float32(1 / (1 + math.Exp(-2*z)))
	}
	return im
}
