// Package orb implements an ORB feature extractor (Rublee et al., "ORB: an
// efficient alternative to SIFT or SURF"), the third local-feature option
// the paper names in Sec. 3.1. ORB couples FAST corners with steered BRIEF
// binary descriptors compared under Hamming distance — which is exactly why
// it is interesting here: binary descriptors have no GEMM formulation, so
// none of the paper's cuBLAS machinery applies to them. The ablate-binary
// experiment measures what that trade buys and costs.
//
// Deviations from the original: descriptors use a seeded pseudo-random
// BRIEF test pattern (Gaussian point pairs, as in the BRIEF paper) rather
// than ORB's learned 256-pair pattern, and corner ranking uses the FAST
// score rather than Harris. Both substitutions preserve the descriptor's
// statistical behaviour.
package orb

import (
	"math"
	"sort"

	"texid/internal/sift"
	"texid/internal/texture"
)

// The detector's fixed settings, common ORB values. The float ones are
// typed so that arithmetic on them rounds at each operation, as it did on
// the Config fields they replace.
const (
	// fastThreshold is the intensity delta for the segment test (images
	// are in [0,1]; OpenCV's 20/255 ≈ 0.08).
	fastThreshold float32 = 0.06
	// pyramidLevels and scaleFactor define the detection pyramid.
	pyramidLevels         = 5
	scaleFactor   float64 = 1.2
)

// Config controls the extractor.
type Config struct {
	// MaxFeatures keeps the strongest corners; 0 keeps all.
	MaxFeatures int
}

// DefaultConfig mirrors common ORB settings.
func DefaultConfig() Config {
	return Config{MaxFeatures: 768}
}

// circle16 is the Bresenham circle of radius 3 used by FAST-9.
var circle16 = [16][2]int{
	{0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
	{0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3},
}

// fastScore runs the FAST-9 segment test at (x, y) with fastThreshold; it
// returns the corner score (sum of absolute differences over the
// contiguous arc) or 0.
func fastScore(im *texture.Image, x, y int) float32 {
	p := im.At(x, y)
	var brighter, darker [32]bool // doubled circle for wraparound runs
	var diffs [16]float32
	for i, c := range circle16 {
		v := im.At(x+c[0], y+c[1])
		diffs[i] = v - p
		brighter[i] = v > p+fastThreshold
		darker[i] = v < p-fastThreshold
		brighter[i+16] = brighter[i]
		darker[i+16] = darker[i]
	}
	run := func(flags *[32]bool) bool {
		count := 0
		for i := 0; i < 32; i++ {
			if flags[i] {
				count++
				if count >= 9 {
					return true
				}
			} else {
				count = 0
			}
		}
		return false
	}
	if !run(&brighter) && !run(&darker) {
		return 0
	}
	var score float32
	for _, d := range diffs {
		if d > fastThreshold {
			score += d - fastThreshold
		} else if d < -fastThreshold {
			score += -d - fastThreshold
		}
	}
	return score
}

// orientation computes the intensity-centroid angle within a radius-15
// patch (Rublee et al. §3.2).
func orientation(im *texture.Image, x, y int) float64 {
	var m01, m10 float64
	const r = 15
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy > r*r {
				continue
			}
			v := float64(im.At(x+dx, y+dy))
			m10 += float64(dx) * v
			m01 += float64(dy) * v
		}
	}
	a := math.Atan2(m01, m10)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// halveTo resizes im to the given dimensions with bilinear sampling.
func resize(im *texture.Image, w, h int) *texture.Image {
	out := texture.NewImage(w, h)
	sx := float64(im.W) / float64(w)
	sy := float64(im.H) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Pix[y*w+x] = im.Bilinear(float64(x)*sx, float64(y)*sy)
		}
	}
	return out
}

// detect finds FAST corners across the pyramid, with 3x3 non-maximum
// suppression per level, response-ranked.
func detect(im *texture.Image, cfg Config) ([]sift.Keypoint, []*texture.Image) {
	levels := make([]*texture.Image, pyramidLevels)
	var kps []sift.Keypoint
	scale := 1.0
	for l := 0; l < pyramidLevels; l++ {
		var lvl *texture.Image
		if l == 0 {
			lvl = im
		} else {
			w := int(float64(im.W) / scale)
			h := int(float64(im.H) / scale)
			if w < 32 || h < 32 {
				levels = levels[:l]
				break
			}
			lvl = resize(im, w, h)
		}
		levels[l] = lvl

		scores := make([]float32, lvl.W*lvl.H)
		border := 19 // room for the descriptor patch
		for y := border; y < lvl.H-border; y++ {
			for x := border; x < lvl.W-border; x++ {
				scores[y*lvl.W+x] = fastScore(lvl, x, y)
			}
		}
		for y := border; y < lvl.H-border; y++ {
			for x := border; x < lvl.W-border; x++ {
				s := scores[y*lvl.W+x]
				if s == 0 {
					continue
				}
				// 3x3 non-maximum suppression with deterministic
				// tie-breaking: earlier scan positions win equal scores.
				max := true
				for dy := -1; dy <= 1 && max; dy++ {
					for dx := -1; dx <= 1; dx++ {
						if dx == 0 && dy == 0 {
							continue
						}
						n := scores[(y+dy)*lvl.W+(x+dx)]
						earlier := dy < 0 || (dy == 0 && dx < 0)
						if n > s || (earlier && n == s) {
							max = false
							break
						}
					}
				}
				if !max {
					continue
				}
				kps = append(kps, sift.Keypoint{
					X:        float64(x) * scale,
					Y:        float64(y) * scale,
					Sigma:    scale,
					Angle:    orientation(lvl, x, y),
					Response: float64(s),
					Octave:   l,
				})
			}
		}
		scale *= scaleFactor
	}
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].Response != kps[j].Response {
			return kps[i].Response > kps[j].Response
		}
		if kps[i].Y != kps[j].Y {
			return kps[i].Y < kps[j].Y
		}
		return kps[i].X < kps[j].X
	})
	if cfg.MaxFeatures > 0 && len(kps) > cfg.MaxFeatures {
		kps = kps[:cfg.MaxFeatures]
	}
	return kps, levels
}
