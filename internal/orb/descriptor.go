package orb

import (
	"math"
	"math/rand"

	"texid/internal/sift"
	"texid/internal/texture"
)

// CodeWords is the descriptor length in 64-bit words (256 binary tests).
const CodeWords = 4

// Code is one 256-bit binary descriptor.
type Code [CodeWords]uint64

// Features is a binary feature set: codes plus keypoint geometry.
type Features struct {
	Codes     []Code
	Keypoints []sift.Keypoint
}

// Count returns the number of features.
func (f *Features) Count() int { return len(f.Codes) }

// pattern is the set of 256 BRIEF test point pairs, drawn from an
// isotropic Gaussian over the 31x31 patch (sigma = patch/5, clamped), as
// in the BRIEF paper.
type pattern [256][4]int8

// patternSeed seeds the BRIEF test pattern (both sides of a match must
// agree on it).
const patternSeed = 7

// brief is the one test pattern every extraction uses.
var brief = makePattern()

func makePattern() *pattern {
	rng := rand.New(rand.NewSource(patternSeed))
	var p pattern
	draw := func() int8 {
		for {
			v := rng.NormFloat64() * 31 / 5
			if v >= -15 && v <= 15 {
				return int8(math.Round(v))
			}
		}
	}
	for i := range p {
		p[i] = [4]int8{draw(), draw(), draw(), draw()}
	}
	return &p
}

// describe computes the steered-BRIEF code for one keypoint: the brief
// test pattern is rotated by the keypoint's orientation before sampling.
func describe(im *texture.Image, x, y int, angle float64) Code {
	cosT, sinT := math.Cos(angle), math.Sin(angle)
	rot := func(dx, dy int8) (int, int) {
		fx := float64(dx)
		fy := float64(dy)
		return x + int(math.Round(cosT*fx-sinT*fy)), y + int(math.Round(sinT*fx+cosT*fy))
	}
	var code Code
	for i, t := range brief {
		ax, ay := rot(t[0], t[1])
		bx, by := rot(t[2], t[3])
		if im.At(ax, ay) < im.At(bx, by) {
			code[i/64] |= 1 << (i % 64)
		}
	}
	return code
}

// Extract runs the full ORB pipeline: pyramid FAST detection, intensity-
// centroid orientation, and steered-BRIEF codes.
func Extract(im *texture.Image, cfg Config) *Features {
	kps, levels := detect(im, cfg)
	out := &Features{Keypoints: kps, Codes: make([]Code, len(kps))}
	scale := 1.0
	scales := make([]float64, len(levels))
	for l := range levels {
		scales[l] = scale
		scale *= scaleFactor
	}
	for i, kp := range kps {
		lvl := levels[kp.Octave]
		s := scales[kp.Octave]
		out.Codes[i] = describe(lvl, int(math.Round(kp.X/s)), int(math.Round(kp.Y/s)), kp.Angle)
	}
	return out
}
