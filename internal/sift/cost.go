package sift

import "math"

// CostEstimate breaks down the arithmetic work of one extraction, used by
// the verify-cost experiment to reproduce the paper's Sec. 3.3 analysis:
// for one-to-one verification the feature extraction dominates, while for
// one-to-many search the 2-NN matching does (its cost scales with the
// reference count M, extraction's does not).
type CostEstimate struct {
	PyramidFLOPs    float64 // separable Gaussian convolutions + DoG
	DetectFLOPs     float64 // extrema scan + refinement
	DescriptorFLOPs float64 // orientation + descriptor windows
}

// Total returns the summed extraction FLOPs.
func (c CostEstimate) Total() float64 {
	return c.PyramidFLOPs + c.DetectFLOPs + c.DescriptorFLOPs
}

// EstimateCost computes the extraction work for a square image of the
// given side, assuming nKeypoints survive to the descriptor
// stage. The model counts multiply-adds the same way the 2-NN FLOP count
// does (2 FLOPs per MAC), so the two sides are comparable.
func EstimateCost(side, nKeypoints int) CostEstimate {
	var est CostEstimate

	w := 2 * float64(side) // the pyramid is built on the upsampled input
	levels := float64(octaveScales + 3)

	// Gaussian pyramid: two separable passes per level with ~8·sigma+1
	// taps (sigma ~1.6 average within an octave), per octave at
	// quarter-area steps; plus one subtraction pass per DoG level.
	taps := 8*baseSigma + 1
	area := w * w
	for area >= 16*16 {
		convFLOPs := area * levels * 2 * taps * 2 // 2 passes, 2 FLOPs/tap
		dogFLOPs := area * (levels - 1)
		est.PyramidFLOPs += convFLOPs + dogFLOPs
		// Extrema scan: 26 comparisons per candidate site across the
		// usable DoG levels.
		est.DetectFLOPs += area * (levels - 3) * 26
		area /= 4
	}

	// Descriptors: orientation window (~(12σ)² samples × ~10 FLOPs) plus
	// the 4×4×8 descriptor accumulation (~(24σ)² samples × ~30 FLOPs for
	// gradient, rotation, Gaussian weight, and trilinear scatter), at a
	// representative sigma of 2.
	const sigma = 2.0
	orient := math.Pow(12*sigma, 2) * 10
	desc := math.Pow(24*sigma, 2) * 30
	est.DescriptorFLOPs = float64(nKeypoints) * (orient + desc)
	return est
}

// Match2NNFLOPs is the similarity-matrix work of matching one query
// against M references (2·m·n·d FLOPs per pair).
func Match2NNFLOPs(M, m, n, d int) float64 {
	return float64(M) * 2 * float64(m) * float64(n) * float64(d)
}
