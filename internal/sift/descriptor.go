package sift

import (
	"math"
	"math/bits"
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
	scale := math.Pow(2, float64(kp.Octave)) * coordScale
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
	var c descChunk
	xi, yi := int(math.Round(ox)), int(math.Round(oy))
	run := descRun{cosT: cosT, negSinT: -sinT, histWidth: histWidth, invGauss: -1.0 / (0.5 * float64(descWidth*descWidth))}
	gw, pix := g.W, g.Pix

	// The window's interior pixels: those with both neighbours in range,
	// and of those the run that the bin cut keeps, gathered a chunk's room
	// at a time.
	for dy := max(-radius, 1-yi); dy <= min(radius, g.H-2-yi); dy++ {
		run.sdy, run.cdy = sinT*float64(dy), cosT*float64(dy)
		lo, hi := keptRun(cosT, run.sdy, histWidth, max(-radius, 1-xi), min(radius, gw-2-xi))
		lo, hi = keptRun(-sinT, run.cdy, histWidth, lo, hi)
		for dx := lo; dx <= hi; {
			m := min(hi+1-dx, evalChunk-c.n)
			i := (yi+dy)*gw + xi + dx
			run.dx0 = dx
			c.gather(m, pix[i-gw:i+gw+m], gw, &run, useAVX512)
			if dx += m; c.n == evalChunk {
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
			at := (i*(descWidth+2) + j) * descBins
			n += copy(desc[n:], hist[at:at+descBins])
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

// keptRun narrows the window columns [lo, hi] of one row to those whose
// bin coordinate on one axis the bin cut keeps: c(dx) = ((a·dx + b) /
// histWidth + descWidth/2) − 0.5, rounded step by step as the window loop
// rounds it, neither <= −1 nor >= descWidth. Every step is monotone in dx —
// a product with a fixed a, an add, a divide by histWidth > 0, two adds —
// so c is non-decreasing in dx for a >= 0 and non-increasing otherwise.
// Each half of the cut then keeps the columns from some dx on or up to
// some dx, and the two together keep one run. The run is empty when
// lo > hi.
func keptRun(a, b, histWidth float64, lo, hi int) (int, int) {
	if a < 0 {
		// a·dx is (−a)·(−dx) exactly, so this is the run over −dx with −a.
		l, h := keptRunUp(-a, b, histWidth, -hi, -lo)
		return -h, -l
	}
	return keptRunUp(a, b, histWidth, lo, hi)
}

// keptRunUp is keptRun for an a that is not negative, or NaN. Each end of
// the run starts at the root of the real-arithmetic c and steps, with the
// exact predicate, to where it flips: usually no step or one. A NaN a or b
// makes every c NaN, which the cut keeps, so the run is all of [lo, hi], as
// the per-pixel test kept it.
func keptRunUp(a, b, histWidth float64, lo, hi int) (int, int) {
	if lo > hi {
		return lo, hi
	}
	c := func(dx int) float64 { return (a*float64(dx)+b)/histWidth + descWidth/2 - 0.5 }
	// l: the first column with !(c <= −1), hi+1 if none.
	l := ceilIn((-(descWidth/2+0.5)*histWidth-b)/a, lo, hi)
	for l > lo && !(c(l-1) <= -1) {
		l--
	}
	for l <= hi && c(l) <= -1 {
		l++
	}
	// h: the first column with c >= descWidth, hi+1 if none.
	h := ceilIn(((descWidth/2+0.5)*histWidth-b)/a, lo, hi)
	for h > lo && c(h-1) >= descWidth {
		h--
	}
	for h <= hi && !(c(h) >= descWidth) {
		h++
	}
	return l, h - 1
}

// ceilIn is ⌈x⌉ clamped to [lo, hi+1], lo for a NaN x.
func ceilIn(x float64, lo, hi int) int {
	if !(x > float64(lo)) {
		return lo
	}
	if x >= float64(hi+1) {
		return hi + 1
	}
	return int(math.Ceil(x))
}

// descHist is the descriptor's histogram: the 4×4 spatial grid with a
// one-bin margin on each side, which trilinear interpolation spills into,
// × descBins orientations, flat: bin (y, x, o) of the padded grid is at
// (y·(descWidth+2) + x)·descBins + o.
type descHist [(descWidth + 2) * (descWidth + 2) * descBins]float64

// descChunk is the descriptor window's gradChunk with each gathered
// pixel's bin coordinates bx, by and, once prepDescriptor has run, its
// eight trilinear shares and the flat bins i0 and i1 of its lower and
// upper orientation in the lower-left spatial cell: the other six bins are
// those two one cell right (+descBins), one row up (+descRow), or both.
type descChunk struct {
	gradChunk // first, at offset 0: desc_amd64.s addresses through it
	bx, by    [evalChunk]float64
	share     [8][evalChunk]float64
	i0, i1    [evalChunk]int
}

// descRun is one kept run of a descriptor window row as gather reads it:
// its first column offset dx0 and the row's rotation terms, sdy = sinT·dy
// and cdy = cosT·dy, beside the keypoint's cosT, −sinT, histWidth and
// Gaussian factor.
type descRun struct {
	dx0                                          int
	cosT, sdy, negSinT, cdy, histWidth, invGauss float64
}

// gather appends m pixels of one kept run to c, the run's first centre
// one row into pix, which holds the run's three rows (len(pix) =
// 2·gw+m). Each pixel gets its float32 central differences, widened, the
// Exp argument of its Gaussian weight, and its bin coordinates bx, by:
// its offset rotated into the keypoint frame in bin units, rx = (cosT·dx
// + sdy) / histWidth and ry = (−sinT·dx + cdy) / histWidth, then rx + 2 −
// 0.5 and ry + 2 − 0.5, so that bin centres align with the grid. native
// runs descGather8 and the Go loop, which is also its oracle, runs
// elsewhere. m is at most evalChunk − c.n.
func (c *descChunk) gather(m int, pix []float32, gw int, r *descRun, native bool) {
	if native {
		descGather8(c, m, pix, gw, r)
		c.n += m
		return
	}
	for j := range m {
		dx := float64(r.dx0 + j)
		rx := (r.cosT*dx + r.sdy) / r.histWidth
		ry := (r.negSinT*dx + r.cdy) / r.histWidth
		i, n := gw+j, c.n
		c.gx[n] = float64(pix[i+1] - pix[i-1])
		c.gy[n] = float64(pix[i+gw] - pix[i-gw])
		c.arg[n] = (rx*rx + ry*ry) * r.invGauss
		c.bx[n], c.by[n] = rx+descWidth/2-0.5, ry+descWidth/2-0.5
		c.n++
	}
}

// descRow is the flat distance between two spatial rows of descHist.
const descRow = (descWidth + 2) * descBins

// scatterDescriptor evaluates c, preps its pixels and adds each of them
// into hist, in pixel order, so every bin's sum keeps the order of the
// per-pixel loop; then it empties c. A pixel's eight adds go to distinct
// bins, so their order within the pixel does not matter.
func scatterDescriptor(hist *descHist, c *descChunk, angle float64) {
	c.evaluate()
	prepDescriptor(c, angle, useAVX512)
	for i := range c.n {
		i0, i1 := c.i0[i], c.i1[i]
		hist[i0] += c.share[0][i]
		hist[i1] += c.share[1][i]
		hist[i0+descBins] += c.share[2][i]
		hist[i1+descBins] += c.share[3][i]
		hist[i0+descRow] += c.share[4][i]
		hist[i1+descRow] += c.share[5][i]
		hist[i0+descRow+descBins] += c.share[6][i]
		hist[i1+descRow+descBins] += c.share[7][i]
	}
	c.n = 0
}

// prepDescriptor writes the shares and bins of c's evaluated pixels:
// native runs descBins8 and then prepPixel for the lanes it flags, and
// prepPixel runs for every pixel elsewhere, which makes it the oracle.
func prepDescriptor(c *descChunk, angle float64, native bool) {
	if !native {
		for i := range c.n {
			c.prepPixel(i, angle)
		}
		return
	}
	var special [evalChunk / 8]uint8
	descBins8(c, angle, &special)
	for g, m := range special[:(c.n+7)/8] {
		for ; m != 0; m &= m - 1 {
			c.prepPixel(8*g+bits.TrailingZeros8(m), angle)
		}
	}
}

// prepPixel writes pixel i's shares and bins: the shares are the products
// ((v·(1−fy))·(1−fx))·(1−fo) and so on, v the pixel's Gaussian-weighted
// magnitude, for trilinear interpolation in (bx, by, orientation). The bin
// cut keeps bx and by in (−1, descWidth), so every spatial bin is inside
// the padded grid; a NaN bx or by, which only a NaN keypoint angle gives,
// makes an arbitrary bin, which the adds' bounds checks catch if it falls
// outside. The orientation bins wrap: o0+1 is descBins for ob in [7, 8),
// and o0 wraps only for a NaN gradient, whose int conversion is arbitrary
// (finite gradients give ob in [0, 8): ang < 2π rounds ob below 8).
func (c *descChunk) prepPixel(i int, angle float64) {
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
	base := ((y0+1)*(descWidth+2) + x0 + 1) * descBins
	c.i0[i] = base + (o0 & (descBins - 1))
	c.i1[i] = base + ((o0 + 1) & (descBins - 1))

	v0, v1 := v*(1-fy), v*fy
	v00, v01 := v0*(1-fx), v0*fx
	v10, v11 := v1*(1-fx), v1*fx
	c.share[0][i] = v00 * (1 - fo)
	c.share[1][i] = v00 * fo
	c.share[2][i] = v01 * (1 - fo)
	c.share[3][i] = v01 * fo
	c.share[4][i] = v10 * (1 - fo)
	c.share[5][i] = v10 * fo
	c.share[6][i] = v11 * (1 - fo)
	c.share[7][i] = v11 * fo
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
