package surf

import (
	"math"
	"sort"

	"texid/internal/sift"
)

// Config controls the SURF extractor.
type Config struct {
	// MaxFeatures keeps the strongest keypoints; 0 keeps all.
	MaxFeatures int
}

// DefaultConfig mirrors the common OpenCV defaults, adapted to [0,1]
// pixel range.
func DefaultConfig() Config {
	return Config{MaxFeatures: 768}
}

// hessianThreshold rejects weak blob responses (images are in [0,1]).
const hessianThreshold float64 = 1e-4

// DescriptorDim is the SURF descriptor length (4×4 subregions × 4 sums).
const DescriptorDim = 64

// filter sizes per octave (the first three octaves of the standard SURF
// ladder; filter sizes grow per octave).
var octaveFilters = [][]int{
	{9, 15, 21, 27},
	{15, 27, 39, 51},
	{27, 51, 75, 99},
}

// responseMap holds Fast-Hessian responses for one filter size at one
// sampling step.
type responseMap struct {
	step int
	size int // filter size L
	w, h int
	resp []float64
	lap  []bool // sign of the Laplacian (trace), for matching polarity
}

func (rm *responseMap) at(ix, iy int) float64 {
	if ix < 0 || iy < 0 || ix >= rm.w || iy >= rm.h {
		return 0
	}
	return rm.resp[iy*rm.w+ix]
}

// buildResponse computes det(H_approx) over the sampled grid for filter
// size L: box-filter approximations of the Gaussian second derivatives,
// with the 0.9 relative-weight correction from the SURF paper.
func buildResponse(ii *integralImage, L, step int) *responseMap {
	rm := &responseMap{step: step, size: L, w: ii.w / step, h: ii.h / step}
	rm.resp = make([]float64, rm.w*rm.h)
	rm.lap = make([]bool, rm.w*rm.h)
	l := L / 3
	b := (L - 1) / 2
	inv := 1.0 / float64(L*L)
	box := func(y, x, rows, cols int) float64 {
		return ii.boxSum(x, y, x+cols, y+rows)
	}
	for iy := 0; iy < rm.h; iy++ {
		for ix := 0; ix < rm.w; ix++ {
			x := ix * step
			y := iy * step
			dxx := box(y-l+1, x-b, 2*l-1, L) - 3*box(y-l+1, x-l/2, 2*l-1, l)
			dyy := box(y-b, x-l+1, L, 2*l-1) - 3*box(y-l/2, x-l+1, l, 2*l-1)
			dxy := box(y-l, x+1, l, l) + box(y+1, x-l, l, l) -
				box(y-l, x-l, l, l) - box(y+1, x+1, l, l)
			dxx *= inv
			dyy *= inv
			dxy *= inv
			rm.resp[iy*rm.w+ix] = dxx*dyy - 0.81*dxy*dxy
			rm.lap[iy*rm.w+ix] = dxx+dyy >= 0
		}
	}
	return rm
}

// detect finds 3×3×3 maxima of det(H) across each octave's middle
// intervals and returns keypoints in image coordinates. Scale follows the
// SURF convention sigma = 1.2·L/9.
func detect(ii *integralImage, cfg Config) []sift.Keypoint {
	var kps []sift.Keypoint
	for o := range octaveFilters {
		step := 1 << o
		maps := make([]*responseMap, len(octaveFilters[o]))
		for i, L := range octaveFilters[o] {
			maps[i] = buildResponse(ii, L, step)
		}
		for mi := 1; mi < len(maps)-1; mi++ {
			b, m, t := maps[mi-1], maps[mi], maps[mi+1]
			// Stay clear of the largest filter's border.
			border := (maps[len(maps)-1].size/2)/step + 1
			for iy := border; iy < m.h-border; iy++ {
				for ix := border; ix < m.w-border; ix++ {
					v := m.at(ix, iy)
					if v < hessianThreshold {
						continue
					}
					if !isMax3x3x3(b, m, t, ix, iy, v) {
						continue
					}
					kps = append(kps, sift.Keypoint{
						X:        float64(ix * step),
						Y:        float64(iy * step),
						Sigma:    1.2 * float64(m.size) / 9,
						Response: v,
						Octave:   o,
						Level:    mi,
					})
				}
			}
		}
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
	return kps
}

func isMax3x3x3(b, m, t *responseMap, ix, iy int, v float64) bool {
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if b.at(ix+dx, iy+dy) >= v || t.at(ix+dx, iy+dy) >= v {
				return false
			}
			if (dx != 0 || dy != 0) && m.at(ix+dx, iy+dy) >= v {
				return false
			}
		}
	}
	return true
}

// orientation computes the dominant direction from Haar responses in a
// radius-6s circle, scanned with a π/3 sliding window (Bay et al. §3.2).
func orientation(ii *integralImage, kp sift.Keypoint) float64 {
	s := int(math.Round(kp.Sigma))
	if s < 1 {
		s = 1
	}
	x0, y0 := int(kp.X), int(kp.Y)
	type resp struct{ angle, dx, dy float64 }
	var rs []resp
	for i := -6; i <= 6; i++ {
		for j := -6; j <= 6; j++ {
			if i*i+j*j > 36 {
				continue
			}
			gx := ii.haarX(x0+i*s, y0+j*s, 4*s)
			gy := ii.haarY(x0+i*s, y0+j*s, 4*s)
			w := gauss(float64(i), float64(j), 2.5)
			rs = append(rs, resp{math.Atan2(gy*w, gx*w), gx * w, gy * w})
		}
	}
	best, bestMag := 0.0, -1.0
	for win := 0.0; win < 2*math.Pi; win += math.Pi / 18 {
		var sx, sy float64
		for _, r := range rs {
			d := angleDiff(r.angle, win)
			if d >= 0 && d < math.Pi/3 {
				sx += r.dx
				sy += r.dy
			}
		}
		if mag := sx*sx + sy*sy; mag > bestMag {
			bestMag = mag
			best = math.Atan2(sy, sx)
		}
	}
	if best < 0 {
		best += 2 * math.Pi
	}
	return best
}

func gauss(x, y, sigma float64) float64 {
	return math.Exp(-(x*x + y*y) / (2 * sigma * sigma))
}

// angleDiff returns a-b wrapped into [0, 2π).
func angleDiff(a, b float64) float64 {
	d := a - b
	for d < 0 {
		d += 2 * math.Pi
	}
	for d >= 2*math.Pi {
		d -= 2 * math.Pi
	}
	return d
}
