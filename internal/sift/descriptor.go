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

	var hist [descWidth + 2][descWidth + 2][descBins]float64
	xi, yi := int(math.Round(ox)), int(math.Round(oy))
	invGauss := -1.0 / (0.5 * float64(descWidth*descWidth))
	gw, pix := g.W, g.Pix

	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			x, y := xi+dx, yi+dy
			if x < 1 || x >= g.W-1 || y < 1 || y >= g.H-1 {
				continue
			}
			// Rotate the offset into the keypoint frame, in bin units.
			rx := (cosT*float64(dx) + sinT*float64(dy)) / histWidth
			ry := (-sinT*float64(dx) + cosT*float64(dy)) / histWidth
			// Bin coordinates in [0, descWidth); offset so bin centers
			// align with the grid.
			bx := rx + descWidth/2 - 0.5
			by := ry + descWidth/2 - 0.5
			if bx <= -1 || bx >= descWidth || by <= -1 || by >= descWidth {
				continue
			}

			// Interior pixel (guarded above): read neighbors directly.
			c := y*gw + x
			gx := float64(pix[c+1] - pix[c-1])
			gy := float64(pix[c+gw] - pix[c-gw])
			mag := math.Sqrt(gx*gx + gy*gy)
			ang := math.Atan2(gy, gx) - kp.Angle
			for ang < 0 {
				ang += 2 * math.Pi
			}
			for ang >= 2*math.Pi {
				ang -= 2 * math.Pi
			}
			ob := ang / (2 * math.Pi) * descBins

			w := math.Exp((rx*rx + ry*ry) * invGauss)
			v := mag * w

			// Trilinear interpolation into (bx, by, ob).
			x0 := int(math.Floor(bx))
			y0 := int(math.Floor(by))
			o0 := int(math.Floor(ob))
			fx := bx - float64(x0)
			fy := by - float64(y0)
			fo := ob - float64(o0)
			for di := 0; di < 2; di++ {
				yb := y0 + di
				if yb < -1 || yb > descWidth {
					continue
				}
				wy := v
				if di == 0 {
					wy *= 1 - fy
				} else {
					wy *= fy
				}
				for dj := 0; dj < 2; dj++ {
					xb := x0 + dj
					if xb < -1 || xb > descWidth {
						continue
					}
					wx := wy
					if dj == 0 {
						wx *= 1 - fx
					} else {
						wx *= fx
					}
					for dk := 0; dk < 2; dk++ {
						obn := (o0 + dk) % descBins
						if obn < 0 {
							obn += descBins
						}
						wo := wx
						if dk == 0 {
							wo *= 1 - fo
						} else {
							wo *= fo
						}
						hist[yb+1][xb+1][obn] += wo
					}
				}
			}
		}
	}

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
