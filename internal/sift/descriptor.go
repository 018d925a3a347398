package sift

import (
	"math"
)

const (
	// DescriptorDim is the SIFT descriptor dimensionality: a 4×4 spatial
	// grid of 8-bin orientation histograms.
	DescriptorDim = 128

	descWidth   = 4 // spatial bins per side
	descBins    = 8 // orientation bins
	descMagCap  = 0.2
	descNorm512 = 512 // OpenCV convention: descriptors scaled to L2 norm 512
)

// computeDescriptorInto extracts the 128-D descriptor of kp from the
// Gaussian level it was detected at, writing it into dst (length
// DescriptorDim), following Lowe §6: gradients in a rotated,
// scale-normalized window are accumulated into a 4×4×8 histogram with
// trilinear interpolation and Gaussian weighting; the vector is normalized,
// clamped at 0.2, renormalized, and finally scaled to L2 norm 512 to match
// OpenCV's output convention (which is the convention under which the FP16
// overflow behaviour of Table 2 occurs). Writing into the caller's column
// keeps the per-keypoint stage allocation-free.
func computeDescriptorInto(p *pyramid, kp Keypoint, dst []float32) {
	g := p.gauss[kp.Octave][kp.Level]
	scale := math.Pow(2, float64(kp.Octave)) * p.coordScale
	ox := kp.X / scale
	oy := kp.Y / scale
	sigma := kp.Sigma / scale

	cosT := math.Cos(kp.Angle)
	sinT := math.Sin(kp.Angle)

	histWidth := 3 * sigma // pixels per spatial bin
	radius := int(math.Round(histWidth * math.Sqrt2 * (descWidth + 1) * 0.5))
	if radius < 1 {
		radius = 1
	}
	// Clamp the radius so the window stays computable near borders.
	if m := g.W; radius > m {
		radius = m
	}

	var hist descHist
	var c gradChunk
	xi, yi := int(math.Round(ox)), int(math.Round(oy))
	invGauss := -1.0 / (0.5 * float64(descWidth*descWidth))
	gw, pix := g.W, g.Pix

	// The window's interior pixels: those with both neighbours in range.
	for dy := max(-radius, 1-yi); dy <= min(radius, g.H-2-yi); dy++ {
		sdy, cdy := sinT*float64(dy), cosT*float64(dy)
		for dx := max(-radius, 1-xi); dx <= min(radius, gw-2-xi); dx++ {
			// Rotate the offset into the keypoint frame, in bin units.
			rx := (cosT*float64(dx) + sdy) / histWidth
			ry := (-sinT*float64(dx) + cdy) / histWidth
			// Bin coordinates in [0, descWidth); offset so bin centers
			// align with the grid.
			bx := rx + descWidth/2 - 0.5
			by := ry + descWidth/2 - 0.5
			if bx <= -1 || bx >= descWidth || by <= -1 || by >= descWidth {
				continue
			}

			i := (yi+dy)*gw + xi + dx
			c.gx[c.n] = float64(pix[i+1] - pix[i-1])
			c.gy[c.n] = float64(pix[i+gw] - pix[i-gw])
			c.arg[c.n] = (rx*rx + ry*ry) * invGauss
			c.bx[c.n], c.by[c.n] = bx, by
			if c.n++; c.n == evalChunk {
				scatterDescriptor(&hist, &c, kp.Angle)
			}
		}
	}
	scatterDescriptor(&hist, &c, kp.Angle)

	// Flatten the interior 4×4 grid into a stack buffer.
	var desc [DescriptorDim]float64
	n := 0
	for i := 1; i <= descWidth; i++ {
		for j := 1; j <= descWidth; j++ {
			n += copy(desc[n:], hist[i][j][:])
		}
	}

	// Normalize, clamp at 0.2, renormalize, scale to 512.
	normalize(desc[:])
	for i, v := range desc {
		if v > descMagCap {
			desc[i] = descMagCap
		}
	}
	normalize(desc[:])

	for i, v := range desc {
		dst[i] = float32(v * descNorm512)
	}
}

// descHist is the descriptor's histogram: the 4×4 spatial grid with a
// one-bin margin on each side, which trilinear interpolation spills into,
// × descBins orientations.
type descHist [descWidth + 2][descWidth + 2][descBins]float64

// scatterDescriptor evaluates c and adds each of its pixels into hist by
// trilinear interpolation in (bx, by, orientation), in pixel order, so
// every bin's sum keeps the order of the per-pixel loop; then it empties c.
// A pixel's eight shares are the products ((v·(1−fy))·(1−fx))·(1−fo) and
// so on, v its Gaussian-weighted magnitude. The bin cut keeps bx and by in
// (−1, descWidth), so the spatial bins need no range check. The
// orientation bins wrap: o0+1 is descBins for ob in [7, 8), and o0 wraps
// only for a NaN gradient, whose int conversion is arbitrary (finite
// gradients give ob in [0, 8): ang < 2π rounds ob below 8).
func scatterDescriptor(hist *descHist, c *gradChunk, angle float64) {
	c.evaluate()
	for i := range c.n {
		gx, gy := c.gx[i], c.gy[i]
		mag := math.Sqrt(gx*gx + gy*gy)
		ang := c.ang[i] - angle
		for ang < 0 {
			ang += 2 * math.Pi
		}
		for ang >= 2*math.Pi {
			ang -= 2 * math.Pi
		}
		ob := ang / (2 * math.Pi) * descBins
		v := mag * c.w[i]

		bx, by := c.bx[i], c.by[i]
		x0 := int(math.Floor(bx))
		y0 := int(math.Floor(by))
		o0 := int(math.Floor(ob))
		fx := bx - float64(x0)
		fy := by - float64(y0)
		fo := ob - float64(o0)
		o1 := (o0 + 1) & (descBins - 1)
		o0 &= descBins - 1

		v0, v1 := v*(1-fy), v*fy
		v00, v01 := v0*(1-fx), v0*fx
		v10, v11 := v1*(1-fx), v1*fx
		r0, r1 := &hist[y0+1], &hist[y0+2]
		r0[x0+1][o0] += v00 * (1 - fo)
		r0[x0+1][o1] += v00 * fo
		r0[x0+2][o0] += v01 * (1 - fo)
		r0[x0+2][o1] += v01 * fo
		r1[x0+1][o0] += v10 * (1 - fo)
		r1[x0+1][o1] += v10 * fo
		r1[x0+2][o0] += v11 * (1 - fo)
		r1[x0+2][o1] += v11 * fo
	}
	c.n = 0
}

// normalize scales v to unit L2 norm in place (no-op for the zero vector).
func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	inv := 1 / math.Sqrt(n)
	for i := range v {
		v[i] *= inv
	}
}
