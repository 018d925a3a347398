package sift

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"texid/internal/blas"
	"texid/internal/texture"
)

// Keypoint is a detected scale-space extremum with orientation.
type Keypoint struct {
	X, Y     float64 // position in original image coordinates
	Sigma    float64 // absolute scale
	Angle    float64 // dominant gradient orientation, radians in [0, 2π)
	Response float64 // |DoG| value at the refined extremum
	Octave   int
	Level    int
}

// slabRef identifies one (octave, level) DoG slab.
type slabRef struct{ o, l int }

// detectExtrema finds local extrema of the DoG pyramid, refines them to
// subpixel accuracy, and filters by contrast and edge response. Each
// (octave, level) slab scans independently and the per-slab results are
// concatenated in slab order, so the keypoint list is identical to the
// sequential scan at any GOMAXPROCS. All working buffers come from the
// arena; the returned slice aliases it and must be copied before escaping
// the extraction.
func detectExtrema(p *pyramid, a *arena) []Keypoint {
	const border = 5

	slabs := a.slabs[:0]
	for o := 0; o < p.nOctaves; o++ {
		for l := 1; l < len(p.dog[o])-1; l++ {
			slabs = append(slabs, slabRef{o, l})
		}
	}
	a.slabs = slabs

	// Per-slab result buffers, recycled across extractions (slab si's
	// buffer is touched only by worker si, in input order).
	for len(a.slabKps) < len(slabs) {
		a.slabKps = append(a.slabKps, nil)
	}
	found := a.slabKps[:len(slabs)]
	thr := contrastThreshold * 0.5
	blas.Parallel(len(slabs), func(si int) {
		o, l := slabs[si].o, slabs[si].l
		scale := math.Pow(2, float64(o)) * coordScale // octave pixel -> original pixel
		d0 := p.dog[o][l-1]
		d1 := p.dog[o][l]
		d2 := p.dog[o][l+1]
		w, h := d1.W, d1.H
		kps := found[si][:0]
		for y := border; y < h-border; y++ {
			for x0 := border; x0 < w-border; x0 += extremaChunk {
				n := min(extremaChunk, w-border-x0)
				var mask [extremaChunk / 16]uint16
				candidates(mask[:(n+15)/16], d0, d1, d2, x0, y, n, thr, useAVX512)
				for b, m := range mask[:(n+15)/16] {
					for ; m != 0; m &= m - 1 {
						x := x0 + 16*b + bits.TrailingZeros16(m)
						kp, ok := refine(p, o, l, x, y)
						if !ok {
							continue
						}
						kp.X *= scale
						kp.Y *= scale
						kp.Sigma *= scale
						kps = append(kps, kp)
					}
				}
			}
		}
		found[si] = kps
	})

	kps := a.kps[:0]
	for _, f := range found {
		kps = append(kps, f...)
	}
	a.kps = kps
	return kps
}

// extremaChunk is the most centres one candidates call covers: a row's
// centres go through it in chunks of this many, so their masks fit a fixed
// stack buffer at any row width.
const extremaChunk = 512

// candidates sets bit j%16 of mask[j/16], for each j < n, exactly when DoG
// pixel (x+j, y) of d1 is one detectExtrema refines: its value v passes
// the contrast test !(|v| < thr) and isExtremum's 26-neighbour test. It
// clears every other bit of mask[:⌈n/16⌉]. native runs extrema16; the
// scalar loop, which is also its oracle, runs elsewhere. The pixels lie at
// least one pixel inside the image.
func candidates(mask []uint16, d0, d1, d2 *texture.Image, x, y, n int, thr float64, native bool) {
	w := d1.W
	if native {
		lo := (y-1)*w + x - 1
		hi := lo + 2*w + n + 2
		extrema16(mask, d0.Pix[lo:hi], d1.Pix[lo:hi], d2.Pix[lo:hi], w, contrast32(thr))
		return
	}
	clear(mask)
	row := d1.Pix[y*w : y*w+w]
	for j := range n {
		if v := row[x+j]; !(math.Abs(float64(v)) < thr) && isExtremum(d0, d1, d2, x+j, y, v) {
			mask[j/16] |= 1 << (j % 16)
		}
	}
}

// contrast32 is the least float32 >= thr: for every float32 v, v < thr in
// float64 exactly when v < contrast32(thr) in float32. A NaN thr gives NaN,
// which no value is below, as none is below thr; a thr past the float32
// range gives +Inf.
func contrast32(thr float64) float32 {
	t := float32(thr)
	if float64(t) < thr {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	return t
}

// isExtremum reports whether d1(x,y)=v is a strict maximum or minimum over
// its 26 scale-space neighbors. Callers guarantee (x, y) is at least one
// pixel inside the image, so neighbors are read without border clamping.
func isExtremum(d0, d1, d2 *texture.Image, x, y int, v float32) bool {
	w := d1.W
	c := y*w + x
	if v > 0 {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				i := c + dy*w + dx
				if d0.Pix[i] >= v || d2.Pix[i] >= v {
					return false
				}
				if (dx != 0 || dy != 0) && d1.Pix[i] >= v {
					return false
				}
			}
		}
		return true
	}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			i := c + dy*w + dx
			if d0.Pix[i] <= v || d2.Pix[i] <= v {
				return false
			}
			if (dx != 0 || dy != 0) && d1.Pix[i] <= v {
				return false
			}
		}
	}
	return true
}

// refine performs up to five iterations of 3-D quadratic interpolation to
// locate the extremum to subpixel accuracy, then applies the contrast and
// principal-curvature (edge) tests from Lowe §4 and §4.1.
func refine(p *pyramid, o, l, x, y int) (Keypoint, bool) {
	d := p.dog[o]
	var dx, dy, ds float64
	for iter := 0; iter < 5; iter++ {
		d0, d1, d2 := d[l-1], d[l], d[l+1]
		// (x, y) stays at least 5 pixels inside the image (guarded below),
		// so the 3x3x3 stencil reads the pixel buffers directly.
		w := d1.W
		c := y*w + x
		p0, p1, p2 := d0.Pix, d1.Pix, d2.Pix

		// First derivatives (central differences).
		gx := 0.5 * float64(p1[c+1]-p1[c-1])
		gy := 0.5 * float64(p1[c+w]-p1[c-w])
		gs := 0.5 * float64(p2[c]-p0[c])

		// Second derivatives.
		v := float64(p1[c])
		hxx := float64(p1[c+1]) + float64(p1[c-1]) - 2*v
		hyy := float64(p1[c+w]) + float64(p1[c-w]) - 2*v
		hss := float64(p2[c]) + float64(p0[c]) - 2*v
		hxy := 0.25 * float64(p1[c+w+1]-p1[c+w-1]-p1[c-w+1]+p1[c-w-1])
		hxs := 0.25 * float64(p2[c+1]-p2[c-1]-p0[c+1]+p0[c-1])
		hys := 0.25 * float64(p2[c+w]-p2[c-w]-p0[c+w]+p0[c-w])

		// Solve H·δ = -g with Cramer's rule.
		det := hxx*(hyy*hss-hys*hys) - hxy*(hxy*hss-hys*hxs) + hxs*(hxy*hys-hyy*hxs)
		if math.Abs(det) < 1e-20 {
			return Keypoint{}, false
		}
		dx = -(gx*(hyy*hss-hys*hys) - gy*(hxy*hss-hys*hxs) + gs*(hxy*hys-hyy*hxs)) / det
		dy = -(hxx*(gy*hss-gs*hys) - hxy*(gx*hss-gs*hxs) + hxs*(gx*hys-gy*hxs)) / det
		ds = -(hxx*(hyy*gs-hys*gy) - hxy*(hxy*gs-hys*gx) + hxs*(hxy*gy-hyy*gx)) / det

		if math.Abs(dx) < 0.5 && math.Abs(dy) < 0.5 && math.Abs(ds) < 0.5 {
			// Converged: contrast test on the interpolated value.
			contrast := v + 0.5*(gx*dx+gy*dy+gs*ds)
			if math.Abs(contrast) < contrastThreshold {
				return Keypoint{}, false
			}
			// Edge test: ratio of principal curvatures of the 2-D Hessian.
			tr := hxx + hyy
			det2 := hxx*hyy - hxy*hxy
			const r = edgeThreshold
			if det2 <= 0 || tr*tr*r >= (r+1)*(r+1)*det2 {
				return Keypoint{}, false
			}
			level := float64(l) + ds
			sigma := baseSigma * math.Pow(2, level/octaveScales)
			return Keypoint{
				X:        float64(x) + dx,
				Y:        float64(y) + dy,
				Sigma:    sigma,
				Response: math.Abs(contrast),
				Octave:   o,
				Level:    l,
			}, true
		}

		// Step to the neighboring sample and retry.
		x += int(math.Round(dx))
		y += int(math.Round(dy))
		l += int(math.Round(ds))
		if l < 1 || l > len(d)-2 || x < 5 || x >= d[0].W-5 || y < 5 || y >= d[0].H-5 {
			return Keypoint{}, false
		}
	}
	return Keypoint{}, false
}

// orientedSet collects the oriented keypoints spawned by one detection:
// almost always at most a few peaks, stored inline; the rare keypoint with
// more than four ≥80% peaks spills into the (arena-recycled) extra slice.
type orientedSet struct {
	n     int
	kp    [4]Keypoint
	extra []Keypoint
}

// add appends one oriented keypoint, preserving peak order.
func (s *orientedSet) add(k Keypoint) {
	if s.n < len(s.kp) {
		s.kp[s.n] = k
		s.n++
		return
	}
	s.extra = append(s.extra, k)
}

// assignOrientations computes the dominant gradient orientation(s) of each
// keypoint from a 36-bin histogram of gradient angles in a Gaussian-weighted
// neighborhood (Lowe §5). Peaks within 80% of the maximum spawn additional
// keypoints, as in the original algorithm. Keypoints are independent, so
// they are processed in parallel and the per-keypoint results concatenated
// in input order — the output is identical at any GOMAXPROCS. The returned
// slice aliases the arena and must be copied before escaping the
// extraction.
func assignOrientations(p *pyramid, a *arena, kps []Keypoint) []Keypoint {
	for len(a.sets) < len(kps) {
		a.sets = append(a.sets, orientedSet{})
	}
	oriented := a.sets[:len(kps)]
	for i := range oriented {
		oriented[i].n = 0
		oriented[i].extra = oriented[i].extra[:0]
	}
	blas.Parallel(len(kps), func(ki int) {
		kp := kps[ki]
		g := p.gauss[kp.Octave][kp.Level]
		scale := math.Pow(2, float64(kp.Octave)) * coordScale
		// Keypoint position in octave coordinates.
		ox := kp.X / scale
		oy := kp.Y / scale
		sigma := 1.5 * kp.Sigma / scale
		radius := int(math.Round(3 * sigma))
		if radius < 1 {
			radius = 1
		}

		var hist [orientBins]float64
		var c orientChunk
		xi, yi := int(math.Round(ox)), int(math.Round(oy))
		inv := -0.5 / (sigma * sigma)
		gw, pix := g.W, g.Pix
		// The window's interior pixels: those with both neighbours in
		// range, gathered a chunk's room at a time. The native gather's
		// squared offsets are exact while every |dx| and |dy|, each below
		// its image side, is at most 2^26.
		native := useAVX512 && gw <= 1<<26 && g.H <= 1<<26
		for dy := max(-radius, 1-yi); dy <= min(radius, g.H-2-yi); dy++ {
			hi := min(radius, gw-2-xi)
			for dx := max(-radius, 1-xi); dx <= hi; {
				m := min(hi+1-dx, evalChunk-c.n)
				i := (yi+dy)*gw + xi + dx
				c.gather(m, pix[i-gw:i+gw+m], gw, dx, dy, inv, native)
				if dx += m; c.n == evalChunk {
					scatterOrientation(&hist, &c)
				}
			}
		}
		scatterOrientation(&hist, &c)

		// Smooth the histogram twice with a [1 1 1]/3 box filter.
		for pass := 0; pass < 2; pass++ {
			var sm [orientBins]float64
			for i := 0; i < orientBins; i++ {
				sm[i] = (hist[(i+orientBins-1)%orientBins] + hist[i] + hist[(i+1)%orientBins]) / 3
			}
			hist = sm
		}

		maxVal := 0.0
		for _, v := range hist {
			if v > maxVal {
				maxVal = v
			}
		}
		if maxVal == 0 {
			return
		}
		for i := 0; i < orientBins; i++ {
			prev := hist[(i+orientBins-1)%orientBins]
			next := hist[(i+1)%orientBins]
			if hist[i] <= prev || hist[i] <= next || hist[i] < 0.8*maxVal {
				continue
			}
			// Parabolic peak interpolation.
			offset := 0.5 * (prev - next) / (prev - 2*hist[i] + next)
			angle := (float64(i)+0.5+offset)/orientBins*2*math.Pi - math.Pi
			if angle < 0 {
				angle += 2 * math.Pi
			}
			k := kp
			k.Angle = angle
			oriented[ki].add(k)
		}
	})

	out := a.okps[:0]
	for i := range oriented {
		out = append(out, oriented[i].kp[:oriented[i].n]...)
		out = append(out, oriented[i].extra...)
	}
	a.okps = out
	return out
}

// orientBins is the orientation histogram's bin count, 10° each.
const orientBins = 36

// orientChunk is the orientation window's gradChunk with each gathered
// pixel's histogram bin and weighted magnitude, once prepOrientation has
// run.
type orientChunk struct {
	gradChunk // first, at offset 0: desc_amd64.s addresses through it
	bin       [evalChunk]int
	wm        [evalChunk]float64
}

// gather appends m pixels of one window row to c, the first at column
// offset dx and one row into pix, which holds the run's three rows
// (len(pix) = 2·gw+m): each pixel's float32 central differences, widened,
// and the Exp argument of its Gaussian weight, float64(dx²+dy²)·inv.
// native runs orientGather8, whose squared offsets are exact only while
// |dx| and |dy| are at most 2^26; the Go loop, which is also its oracle,
// runs elsewhere. m is at most evalChunk − c.n.
func (c *orientChunk) gather(m int, pix []float32, gw, dx, dy int, inv float64, native bool) {
	if native {
		orientGather8(&c.gradChunk, m, pix, gw, dx, dy, inv)
		c.n += m
		return
	}
	for j := range m {
		i, x := gw+j, dx+j
		c.gx[c.n] = float64(pix[i+1] - pix[i-1])
		c.gy[c.n] = float64(pix[i+gw] - pix[i-gw])
		c.arg[c.n] = float64(x*x+dy*dy) * inv
		c.n++
	}
}

// scatterOrientation evaluates c, preps its pixels and adds each one's
// weighted gradient magnitude into its angle's bin of hist, in pixel
// order, so every bin's sum keeps the order of the per-pixel loop; then it
// empties c.
func scatterOrientation(hist *[orientBins]float64, c *orientChunk) {
	c.evaluate()
	prepOrientation(c, useAVX512)
	for i := range c.n {
		hist[c.bin[i]] += c.wm[i]
	}
	c.n = 0
}

// prepOrientation writes the bins and weighted magnitudes of c's
// evaluated pixels: native runs orientBins8 and then prepPixel for the
// lanes it flags, and prepPixel runs for every pixel elsewhere, which
// makes it the oracle.
func prepOrientation(c *orientChunk, native bool) {
	if !native {
		for i := range c.n {
			c.prepPixel(i)
		}
		return
	}
	var special [evalChunk / 8]uint8
	orientBins8(c, &special)
	for g, m := range special[:(c.n+7)/8] {
		for ; m != 0; m &= m - 1 {
			c.prepPixel(8*g + bits.TrailingZeros8(m))
		}
	}
}

// prepPixel writes pixel i's bin, ⌊(ang + π) / 2π · 36⌋ with atan2's π
// clamped into the last bin, and its magnitude times its Gaussian weight.
// A NaN angle makes an arbitrary bin, which the add's bounds check
// catches.
func (c *orientChunk) prepPixel(i int) {
	gx, gy := c.gx[i], c.gy[i]
	mag := math.Sqrt(gx*gx + gy*gy)
	bin := int(math.Floor((c.ang[i] + math.Pi) / (2 * math.Pi) * orientBins)) // atan2 is in [−π, π]
	if bin >= orientBins {
		bin = orientBins - 1
	}
	c.bin[i] = bin
	c.wm[i] = c.w[i] * mag
}

// dropBorder removes, in place and keeping order, the keypoints within
// borderMargin original pixels of a w×h image's border.
func dropBorder(kps []Keypoint, w, h int) []Keypoint {
	return slices.DeleteFunc(kps, func(k Keypoint) bool {
		return k.X < borderMargin || k.Y < borderMargin ||
			k.X > float64(w)-borderMargin || k.Y > float64(h)-borderMargin
	})
}

// topKByResponse sorts keypoints by descending DoG response and keeps the
// k strongest (k <= 0 keeps all, still sorted). Response ordering is what
// makes the asymmetric extraction of Sec. 7 a simple prefix: reference
// images keep the m strongest features, queries the n strongest, and a
// caller holding a full extraction can trim to any budget by truncation.
// The order is total: ties fall to Y, X, Octave, Level, Sigma and last
// Angle, which tells one keypoint's orientation copies apart. So the
// output depends on which keypoints come in, never on their order.
func topKByResponse(kps []Keypoint, k int) []Keypoint {
	slices.SortFunc(kps, func(a, b Keypoint) int {
		if c := cmp.Compare(b.Response, a.Response); c != 0 {
			return c // most pairs: the tie-break keys are not computed
		}
		return cmp.Or(cmp.Compare(a.Y, b.Y), cmp.Compare(a.X, b.X), cmp.Compare(a.Octave, b.Octave),
			cmp.Compare(a.Level, b.Level), cmp.Compare(a.Sigma, b.Sigma), cmp.Compare(a.Angle, b.Angle))
	})
	if k <= 0 || k >= len(kps) {
		return kps
	}
	return kps[:k]
}
