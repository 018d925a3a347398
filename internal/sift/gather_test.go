package sift

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// gatherCase is one row run as both window gathers see it: the run's
// three rows (pix, len 2·gw+m, stride gw, the first centre at pix[gw]),
// its length m, the chunk lane n0 it starts at, and each gather's
// geometry.
type gatherCase struct {
	pix       []float32
	gw, m, n0 int
	dx, dy    int     // orientation: first column offset and row offset
	inv       float64 // orientation: the Gaussian's −1/(2σ²)
	run       descRun // descriptor
}

// gatherSentinel marks the chunk lanes a gather must not write.
const gatherSentinel = 0x7ff4dead0000beef

// checkGather runs both gathers of g on the portable loops and on the
// host's tier and fails unless every lane matches bit for bit (a NaN
// matching any NaN), c.n advanced by m, and no lane outside [n0, n0+m)
// changed.
func checkGather(t *testing.T, g gatherCase) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	var oc [2]orientChunk
	var dc [2]descChunk
	for k, native := range []bool{false, useAVX512} {
		for _, a := range []*[evalChunk]float64{&oc[k].gx, &oc[k].gy, &oc[k].arg, &dc[k].gx, &dc[k].gy, &dc[k].arg, &dc[k].bx, &dc[k].by} {
			for i := range a {
				a[i] = math.Float64frombits(gatherSentinel)
			}
		}
		oc[k].n, dc[k].n = g.n0, g.n0
		oc[k].gather(g.m, g.pix, g.gw, g.dx, g.dy, g.inv, native)
		run := g.run
		dc[k].gather(g.m, g.pix, g.gw, &run, native)
		if oc[k].n != g.n0+g.m || dc[k].n != g.n0+g.m {
			t.Fatalf("%+v: native=%t: the gathers left c.n at %d and %d, want %d", g.run, native, oc[k].n, dc[k].n, g.n0+g.m)
		}
	}
	for k, arrays := range [][2]*[evalChunk]float64{
		{&oc[0].gx, &oc[1].gx}, {&oc[0].gy, &oc[1].gy}, {&oc[0].arg, &oc[1].arg},
		{&dc[0].gx, &dc[1].gx}, {&dc[0].gy, &dc[1].gy}, {&dc[0].arg, &dc[1].arg}, {&dc[0].bx, &dc[1].bx}, {&dc[0].by, &dc[1].by},
	} {
		name := []string{"orient gx", "orient gy", "orient arg", "desc gx", "desc gy", "desc arg", "desc bx", "desc by"}[k]
		for i := range evalChunk {
			want, got := arrays[0][i], arrays[1][i]
			if in := i >= g.n0 && i < g.n0+g.m; !in && math.Float64bits(want) != gatherSentinel {
				t.Fatalf("portable %s wrote lane %d outside [%d, %d)", name, i, g.n0, g.n0+g.m)
			}
			if !same(got, want) {
				t.Fatalf("gw=%d m=%d n0=%d dx=%d dy=%d inv=%v run %+v: %s lane %d = %#x, portable %#x",
					g.gw, g.m, g.n0, g.dx, g.dy, g.inv, g.run, name, i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// gatherRun draws a descriptor run's geometry as computeDescriptorInto
// makes it: a keypoint angle (random, an axis angle, whose sine or cosine
// is ±0, or NaN), a window scale and a row offset dy.
func gatherRun(rng *rand.Rand, dx0, dy int) descRun {
	angle := 2 * math.Pi * rng.Float64()
	switch rng.Intn(8) {
	case 0:
		angle = float64(rng.Intn(4)) * math.Pi / 2
	case 1:
		angle = math.NaN()
	}
	cosT, sinT := math.Cos(angle), math.Sin(angle)
	return descRun{
		dx0: dx0, cosT: cosT, negSinT: -sinT, sdy: sinT * float64(dy), cdy: cosT * float64(dy),
		histWidth: 3 * (0.5 + 6*rng.Float64()), invGauss: -1.0 / (0.5 * float64(descWidth*descWidth)),
	}
}

// gatherInvs are Gaussian factors for the orientation gather: a real
// window's, and the edges −0, −Inf and NaN.
var gatherInvs = []float64{-0.5 / (1.6 * 1.6), -0.5 / (7.3 * 7.3), math.Copysign(0, -1), math.Inf(-1), math.NaN()}

// TestGatherTiersMatch holds orientGather8 and descGather8, through the
// two gathers, to the Go loops bit for bit: row runs of every length
// 0–17, 31, 64 and 128 starting at chunk lanes 0–8 and at the last lane
// that fits, over three rows of the blur table's signed pixels (±0,
// subnormals, ±MaxFloat32, ±Inf) with NaN mixed in, at row widths that
// are and are not multiples of 8. Offsets run from the window's usual few
// to ±2^26, the orientation kernel's exactness bound, and the Gaussian
// factors include −0, −Inf and NaN. Skips where the host lacks the native
// tier; scripts/check.sh runs it with -v, so the log says which.
func TestGatherTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F gather tier on this host/build")
	}
	rng := rand.New(rand.NewSource(40))
	runs := 0
	for _, gw := range []int{3, 19, 40, 131, 300} {
		pix := make([]float32, 3*gw)
		for i := range pix {
			pix[i] = signedPixel(rng)
			if rng.Intn(32) == 0 {
				pix[i] = float32(math.NaN())
			}
		}
		for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64, 128} {
			if m > gw-2 {
				continue
			}
			for _, n0 := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, evalChunk - m} {
				if n0+m > evalChunk {
					continue
				}
				x := 1 + rng.Intn(gw-1-m) // the run's first centre column
				var dx, dy int
				switch rng.Intn(4) {
				case 0: // the bound: |dx|, |dy| <= 2^26 over the whole run
					dx, dy = []int{-1 << 26, 1<<26 - m}[rng.Intn(2)], []int{-1 << 26, 1 << 26}[rng.Intn(2)]
				default:
					dx, dy = rng.Intn(61)-30, rng.Intn(61)-30
				}
				checkGather(t, gatherCase{
					pix: pix[x : x+2*gw+m], gw: gw, m: m, n0: n0, dx: dx, dy: dy,
					inv: gatherInvs[rng.Intn(len(gatherInvs))], run: gatherRun(rng, dx, dy),
				})
				runs++
			}
		}
	}
	t.Logf("tiers agree on %d runs", runs)
}

// FuzzGatherTiers is TestGatherTiersMatch over every input: checkGather
// on one run. shape picks the row width gw (3…514), the run length m
// (0…128, cut to the row), its first chunk lane, and the offsets dx and
// dy (int16s, or the ±2^26 ends of the orientation kernel's exact range);
// data's first bytes pick the Gaussian factor and the
// descriptor geometry's angle and scale, then draw the three rows'
// pixels as FuzzBlurTiers draws them, data wrapping around when it runs
// out. The seed corpus under testdata/fuzz is the table's run lengths and
// chunk lanes.
func FuzzGatherTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		gw := 3 + int(shape%512)
		m := min(int(shape>>9)%(evalChunk+1), gw-2)
		n0 := int(shape>>17) % (evalChunk - m + 1)
		dx, dy := int(int16(shape>>24)), int(int16(shape>>40))
		if shape>>56&1 != 0 {
			dx = []int{-1 << 26, 1<<26 - m}[shape>>57&1]
		}
		if shape>>58&1 != 0 {
			dy = []int{-1 << 26, 1 << 26}[shape>>59&1]
		}
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		inv := gatherInvs[int(next())%len(gatherInvs)]
		angle := 2 * math.Pi * float64(binary.LittleEndian.Uint16([]byte{next(), next()})) / 65536
		if k := next(); k < 16 {
			angle = []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, math.NaN()}[k%5]
		}
		cosT, sinT := math.Cos(angle), math.Sin(angle)
		run := descRun{
			dx0: dx, cosT: cosT, negSinT: -sinT, sdy: sinT * float64(dy), cdy: cosT * float64(dy),
			histWidth: 1.5 + 18*float64(next())/255, invGauss: -1.0 / (0.5 * float64(descWidth*descWidth)),
		}
		pix := make([]float32, 2*gw+m)
		var last float32
		for i := range pix {
			kind := next()
			sign := float32(1 - 2*int(kind>>7))
			var v float32
			switch kind % 8 {
			case 0:
				v = sign * 0
			case 1:
				v = sign * math.Float32frombits(uint32(next())|uint32(next())<<8)
			case 2:
				v = sign * math.MaxFloat32 * float32(next()) / 255
			case 3:
				v = last
			case 4, 5:
				v = float32(int8(next())) / 64
			default:
				v = math.Float32frombits(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
			}
			pix[i], last = v, v
		}
		checkGather(t, gatherCase{pix: pix, gw: gw, m: m, n0: n0, dx: dx, dy: dy, inv: inv, run: run})
	})
}

// orientLane is one evaluated pixel as prepOrientation sees it.
type orientLane struct{ gx, gy, ang, w float64 }

// orientSpecial reports whether orientBins8 must flag a lane: its bin
// coordinate (ang + π) / 2π · 36 is outside [0, 36], NaN included, or its
// weighted magnitude w·sqrt(gx² + gy²) is not finite.
func orientSpecial(l orientLane) bool {
	t := (l.ang + math.Pi) / (2 * math.Pi) * orientBins
	wm := l.w * math.Sqrt(l.gx*l.gx+l.gy*l.gy)
	return !(t >= 0 && t <= orientBins) || math.IsNaN(wm) || math.IsInf(wm, 0)
}

// orientLanes is the orientation-prep table's pixels: every gradient in
// descEdgeGrads against every other, with its atan2 (±π among them, whose
// bin coordinate 36 clamps into the last bin) and a weight; the angles one
// ulp either side of every bin edge and of ±π, and angles atan2 never
// gives (±4, ±Inf, NaN); then 4096 random pixels with small-integer,
// float32-difference and full-precision gradients and weights exp(−8u),
// an edge weight (0, 1, NaN, +Inf, MaxFloat64) now and then.
func orientLanes(rng *rand.Rand) []orientLane {
	weight := func() float64 {
		if rng.Intn(32) == 0 {
			return []float64{0, 1, math.NaN(), math.Inf(1), math.MaxFloat64}[rng.Intn(5)]
		}
		return math.Exp(-8 * rng.Float64())
	}
	var lanes []orientLane
	for _, gy := range descEdgeGrads {
		for _, gx := range descEdgeGrads {
			lanes = append(lanes, orientLane{gx, gy, math.Atan2(gy, gx), weight()})
		}
	}
	for k := 0; k <= orientBins; k++ {
		edge := float64(k)*2*math.Pi/orientBins - math.Pi
		for _, ang := range []float64{math.Nextafter(edge, -4), edge, math.Nextafter(edge, 4)} {
			lanes = append(lanes, orientLane{1, 1, ang, weight()})
		}
	}
	for _, ang := range []float64{4, -4, math.Inf(1), math.Inf(-1), math.NaN()} {
		lanes = append(lanes, orientLane{1, 1, ang, 0.5})
	}
	for i := 0; i < 4096; i++ {
		var gx, gy float64
		switch i % 3 {
		case 0:
			gx, gy = float64(rng.Intn(9)-4), float64(rng.Intn(9)-4)
		case 1:
			gx, gy = float64(rng.Float32()-rng.Float32()), float64(rng.Float32()-rng.Float32())
		default:
			gx, gy = rng.NormFloat64(), rng.NormFloat64()
		}
		lanes = append(lanes, orientLane{gx, gy, math.Atan2(gy, gx), weight()})
	}
	return lanes
}

// checkOrientBins runs prepOrientation on both tiers over lanes and fails
// unless every bin and weighted magnitude matches bit for bit (a NaN
// matching any NaN); where the host has the native tier it also holds
// orientBins8 to its flag contract — it must flag exactly the
// orientSpecial lanes and leave the others equal to prepPixel's — and to
// storing nothing past the last lane.
func checkOrientBins(t *testing.T, lanes []orientLane) {
	t.Helper()
	n := len(lanes)
	fill := func(c *orientChunk) {
		for i := range c.bin {
			c.bin[i], c.wm[i] = gatherSentinel, math.Float64frombits(gatherSentinel)
		}
		c.n = n
		for i, l := range lanes {
			c.gx[i], c.gy[i], c.ang[i], c.w[i] = l.gx, l.gy, l.ang, l.w
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	compare := func(what string, got, want *orientChunk, check func(i int) bool) {
		for i := range evalChunk {
			if !check(i) {
				continue
			}
			if got.bin[i] != want.bin[i] || !same(got.wm[i], want.wm[i]) {
				t.Fatalf("n=%d lane %d %+v: %s bin %d wm %#x, scalar %d %#x", n, i, lanes[min(i, n-1)], what,
					got.bin[i], math.Float64bits(got.wm[i]), want.bin[i], math.Float64bits(want.wm[i]))
			}
		}
	}
	var got, want orientChunk
	fill(&got)
	fill(&want)
	prepOrientation(&want, false)
	prepOrientation(&got, useAVX512)
	compare("prepOrientation", &got, &want, func(int) bool { return true })
	if !useAVX512 {
		return
	}
	var raw orientChunk
	fill(&raw)
	var special [evalChunk / 8]uint8
	orientBins8(&raw, &special)
	for i, l := range lanes {
		if flagged := special[i/8]>>(i%8)&1 != 0; flagged != orientSpecial(l) {
			t.Fatalf("n=%d lane %d %+v: orientBins8 flags it: %t", n, i, l, flagged)
		}
	}
	checkTailMask(t, "orientBins8", special[:], n)
	compare("orientBins8", &raw, &want, func(i int) bool { return i >= n || !orientSpecial(lanes[i]) })
}

// TestOrientBinsTiersMatch holds orientBins8, through prepOrientation, to
// the scalar prep bit for bit, and the raw kernel to its flag contract:
// the orientLanes rows cut into windows of every length 0–17 and 128 at
// every offset of a sweep over the edge lanes, so each lands in every
// lane of every mask byte and every tail length runs; then the whole row
// set in chunks of 128. Skips where the host lacks the native tier;
// scripts/check.sh runs it with -v, so the log says which.
func TestOrientBinsTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F orientation-prep tier on this host/build")
	}
	rng := rand.New(rand.NewSource(40))
	lanes := orientLanes(rng)
	edge := len(descEdgeGrads)*len(descEdgeGrads) + 3*(orientBins+1) + 5
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, evalChunk} {
		for lo := 0; lo+n <= edge+64; lo += max(1, n/3) {
			checkOrientBins(t, lanes[lo:lo+n])
		}
	}
	for lo := 0; lo+evalChunk <= len(lanes); lo += evalChunk {
		checkOrientBins(t, lanes[lo:lo+evalChunk])
	}
	flagged, clamped := 0, 0
	for _, l := range lanes {
		if orientSpecial(l) {
			flagged++
		} else if (l.ang+math.Pi)/(2*math.Pi)*orientBins == orientBins {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no unflagged lane had bin coordinate 36; the table must clamp one")
	}
	t.Logf("tiers agree; %d of %d lanes were flagged, %d clamped into the last bin", flagged, len(lanes), clamped)
}

// FuzzOrientBinsTiers is TestOrientBinsTiersMatch over every input:
// checkOrientBins on n%(evalChunk+1) lanes. Each lane's gradient
// components draw as FuzzDescBinsTiers draws them; its ang is atan2 of the
// gradient, a bin edge, one ulp off one, or eight literal bytes; its
// weight is exp(−8u) or eight literal bytes; data wraps around when it
// runs out. The seed corpus under testdata/fuzz is the table's windows as
// literals.
func FuzzOrientBinsTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		lanes := make([]orientLane, int(n)%(evalChunk+1))
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		literal := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		grad := func() float64 {
			kind := next()
			switch kind % 4 {
			case 0:
				return float64(1-2*int(kind>>7)) * 0
			case 1:
				return float64(int8(next())) / 32
			case 2:
				return descEdgeGrads[int(next())%len(descEdgeGrads)]
			default:
				return literal()
			}
		}
		for i := range lanes {
			l := &lanes[i]
			l.gx, l.gy = grad(), grad()
			switch k := next(); k % 4 {
			case 0:
				l.ang = float64(int(k>>2)%(orientBins+1))*2*math.Pi/orientBins - math.Pi
			case 1:
				l.ang = math.Nextafter(float64(int(k>>2)%(orientBins+1))*2*math.Pi/orientBins-math.Pi, float64(k&0x80)-64)
			case 2:
				l.ang = literal()
			default:
				l.ang = math.Atan2(l.gy, l.gx)
			}
			l.w = math.Exp(-8 * float64(next()) / 255)
			if k := next(); k < 8 {
				l.w = literal()
			}
		}
		checkOrientBins(t, lanes)
	})
}
