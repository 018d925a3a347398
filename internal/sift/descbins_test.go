package sift

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// descAngles are the keypoint angles the descriptor-prep tables run at:
// 0, 1, π, 1.9π (gradients below −2π after the subtraction take two
// turns of the ang < 0 loop), the largest double below 2π, and NaN.
var descAngles = []float64{0, 1, math.Pi, 1.9 * math.Pi, math.Nextafter(2*math.Pi, 0), math.NaN()}

// descLane is one gathered pixel as prepDescriptor sees it.
type descLane struct{ gx, gy, ang, w, bx, by float64 }

// descSpecial reports whether descBins8 must flag a lane at angle: its
// ang − angle is not finite, its bx or by is outside (−1, descWidth), or
// its magnitude-times-weight v or its orientation coordinate ob is not
// finite, which covers every non-finite gradient.
func descSpecial(l descLane, angle float64) bool {
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	inBin := func(v float64) bool { return v > -1 && v < descWidth }
	a := l.ang - angle
	if !finite(a) || !inBin(l.bx) || !inBin(l.by) {
		return true
	}
	for a < 0 {
		a += 2 * math.Pi
	}
	for a >= 2*math.Pi {
		a -= 2 * math.Pi
	}
	return !finite(math.Sqrt(l.gx*l.gx+l.gy*l.gy)*l.w) || !finite(a/(2*math.Pi)*descBins)
}

// descLanes is the prep table's pixels. The edge lanes put every
// gradient in descEdgeGrads against every other: ±0, ±1, small pixel
// differences, NaN, ±Inf and magnitudes whose squares overflow or
// underflow; their angle is atan2 of the gradient. Then the angle-wrap
// edges for each descAngles angle: ang one ulp below it, so ang − angle
// rounds to exactly 2π after the ang < 0 turn, and ang a little below it,
// so ob lands in [7, 8). Then a tiny gradient, −0 bin coordinates (Go's
// float64(int(floor(−0))) is +0), a gradient whose squares round, and a bx
// whose floor overflows an int32, a flagged lane whose kernel bins differ
// from Go's (the fuzz seeds' tails end in it). Then
// 4096 random pixels: small-integer, float32-difference and full-precision
// gradients with their atan2 (a float32 difference squares exactly in
// float64, so only the last kind tells a fused magnitude apart), weights
// exp(−8u), and bin coordinates uniform in (−1, descWidth) with the cut's
// extremes and the integers mixed in. Every lane draws its weight and bin coordinates from
// descEdgeCoords now and then, so out-of-range and NaN ones occur too.
func descLanes(rng *rand.Rand) []descLane {
	coord := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.Nextafter(-1, 0)
		case 1:
			return math.Nextafter(descWidth, 0)
		case 2:
			return float64(rng.Intn(descWidth+1) - 1)
		case 3:
			return descEdgeCoords[rng.Intn(len(descEdgeCoords))]
		default:
			return (descWidth+1)*rng.Float64() - 1
		}
	}
	weight := func() float64 {
		if rng.Intn(32) == 0 {
			return []float64{0, 1, math.NaN(), math.Inf(1), math.MaxFloat64}[rng.Intn(5)]
		}
		return math.Exp(-8 * rng.Float64())
	}
	var lanes []descLane
	for _, gy := range descEdgeGrads {
		for _, gx := range descEdgeGrads {
			lanes = append(lanes, descLane{gx, gy, math.Atan2(gy, gx), weight(), coord(), coord()})
		}
	}
	for _, angle := range descAngles {
		for _, ang := range []float64{math.Nextafter(angle, -4), angle - 1e-3, angle - 1e-9} {
			if ang >= -math.Pi {
				lanes = append(lanes, descLane{1, 1, ang, weight(), coord(), coord()})
			}
		}
	}
	neg0 := math.Copysign(0, -1)
	lanes = append(lanes, descLane{1, -1e-300, math.Atan2(-1e-300, 1), 1, 1.5, 1.5},
		descLane{1, 2, math.Atan2(2, 1), 0.5, neg0, 1.5}, descLane{-3, 1, math.Atan2(1, -3), 0.5, 2.5, neg0},
		descLane{0.1, 1.0 / 3, math.Atan2(1.0/3, 0.1), 0.5, 0.25, 3.75},
		descLane{1, 1, math.Atan2(1, 1), 0.5, 1e300, 1.5})
	for i := 0; i < 4096; i++ {
		var gx, gy float64
		switch i % 3 {
		case 0:
			gx, gy = float64(rng.Intn(9)-4), float64(rng.Intn(9)-4)
		case 1:
			gx, gy = float64(rng.Float32()-rng.Float32()), float64(rng.Float32()-rng.Float32())
		default: // full 53-bit gradients, whose squares round
			gx, gy = rng.NormFloat64(), rng.NormFloat64()
		}
		lanes = append(lanes, descLane{gx, gy, math.Atan2(gy, gx), weight(), coord(), coord()})
	}
	return lanes
}

// descEdgeGrads and descEdgeCoords are the edge values of descLanes.
var (
	descEdgeGrads  = []float64{0, math.Copysign(0, -1), 1, -1, 3, -2, 1e-200, 1e160, -1e160, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	descEdgeCoords = []float64{-1, descWidth, 5, -3, 1e300, math.NaN(), math.Inf(-1), math.Copysign(0, -1)}
)

// checkDescBins runs prepDescriptor on both tiers over lanes at angle and
// fails unless every share and bin matches bit for bit (a NaN matching any
// NaN); where the host has the native tier it also holds descBins8 to its
// flag contract — it must flag exactly the descSpecial lanes and leave the
// others equal to prepPixel's — and to storing nothing past the last lane.
func checkDescBins(t *testing.T, lanes []descLane, angle float64) {
	t.Helper()
	n := len(lanes)
	const sentinel = 0x7ff4dead0000beef
	fill := func(c *descChunk) {
		for k := range c.share {
			for i := range c.share[k] {
				c.share[k][i] = math.Float64frombits(sentinel)
			}
		}
		for i := range c.i0 {
			c.i0[i], c.i1[i] = sentinel, sentinel
		}
		c.n = n
		for i, l := range lanes {
			c.gx[i], c.gy[i], c.ang[i], c.w[i], c.bx[i], c.by[i] = l.gx, l.gy, l.ang, l.w, l.bx, l.by
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b) }
	compare := func(what string, got, want *descChunk, lanesToCheck func(i int) bool) {
		for i := range evalChunk {
			if !lanesToCheck(i) {
				continue
			}
			if got.i0[i] != want.i0[i] || got.i1[i] != want.i1[i] {
				t.Fatalf("angle %v n=%d lane %d %+v: %s bins %d, %d, scalar %d, %d", angle, n, i, lanes[min(i, n-1)], what, got.i0[i], got.i1[i], want.i0[i], want.i1[i])
			}
			for k := range got.share {
				if !same(got.share[k][i], want.share[k][i]) {
					t.Fatalf("angle %v n=%d lane %d %+v: %s share %d = %#x, scalar %#x", angle, n, i, lanes[min(i, n-1)], what, k,
						math.Float64bits(got.share[k][i]), math.Float64bits(want.share[k][i]))
				}
			}
		}
	}
	var got, want descChunk
	fill(&got)
	fill(&want)
	prepDescriptor(&want, angle, false)
	prepDescriptor(&got, angle, useAVX512)
	compare("prepDescriptor", &got, &want, func(int) bool { return true })
	if !useAVX512 {
		return
	}
	var raw descChunk
	fill(&raw)
	var special [evalChunk / 8]uint8
	descBins8(&raw, angle, &special)
	for i, l := range lanes {
		if flagged := special[i/8]>>(i%8)&1 != 0; flagged != descSpecial(l, angle) {
			t.Fatalf("angle %v n=%d lane %d %+v: descBins8 flags it: %t", angle, n, i, l, flagged)
		}
	}
	checkTailMask(t, "descBins8", special[:], n)
	compare("descBins8", &raw, &want, func(i int) bool { return i >= n || !descSpecial(lanes[i], angle) })
}

// TestDescBinsTiersMatch holds descBins8, through prepDescriptor, to the
// scalar prep bit for bit, and the raw kernel to its flag contract: the
// descLanes rows at every descAngles angle, cut into windows of every
// length 0–17 and 128 at every offset of a sweep over the edge lanes, so
// each lands in every lane of every mask byte and every tail length runs;
// then the whole row set in chunks of 128. Skips where the host lacks the
// native tier; scripts/check.sh runs it with -v, so the log says which.
func TestDescBinsTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F descriptor-prep tier on this host/build")
	}
	rng := rand.New(rand.NewSource(38))
	lanes := descLanes(rng)
	edge := len(descEdgeGrads)*len(descEdgeGrads) + 3*len(descAngles) + 5
	flagged, wrapEdge, topBin := 0, 0, 0
	for _, angle := range descAngles {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, evalChunk} {
			for lo := 0; lo+n <= edge+64; lo += max(1, n/3) {
				checkDescBins(t, lanes[lo:lo+n], angle)
			}
		}
		for lo := 0; lo+evalChunk <= len(lanes); lo += evalChunk {
			checkDescBins(t, lanes[lo:lo+evalChunk], angle)
		}
		for _, l := range lanes {
			if descSpecial(l, angle) {
				flagged++
				continue
			}
			if a := l.ang - angle; a < 0 && a+2*math.Pi == 2*math.Pi {
				wrapEdge++
			} else if ob := math.Mod(a+2*math.Pi, 2*math.Pi) / (2 * math.Pi) * descBins; ob >= 7 {
				topBin++
			}
		}
	}
	if wrapEdge == 0 || topBin == 0 {
		t.Fatalf("%d lanes hit the wrap edge and %d put ob in [7, 8); the table must have both", wrapEdge, topBin)
	}
	t.Logf("tiers agree; %d of %d lanes were flagged, %d hit the wrap edge, %d put ob in [7, 8)",
		flagged, len(descAngles)*len(lanes), wrapEdge, topBin)
}

// FuzzDescBinsTiers is TestDescBinsTiersMatch over every input:
// checkDescBins on n%(evalChunk+1) lanes at the angle data's first byte
// picks (a descAngles entry, or a fraction of 2π). Each lane's gradient
// components take one kind byte — ±0, a small signed integer over 4, an
// edge gradient, or eight literal bytes — its ang is atan2 of the gradient,
// one ulp below the angle (the wrap edge), 10⁻³ below it (ob in [7, 8)) or
// NaN, and its weight and bin coordinates draw the same way from their own
// kinds; data wraps around when it runs out. The seed corpus under
// testdata/fuzz is the table's windows as literals.
func FuzzDescBinsTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		lanes := make([]descLane, int(n)%(evalChunk+1))
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
		angle := 2 * math.Pi * float64(next()) / 256
		if k := next(); int(k) < len(descAngles) {
			angle = descAngles[k]
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
		coord := func() float64 {
			switch kind := next(); kind % 4 {
			case 0:
				return descEdgeCoords[int(next())%len(descEdgeCoords)]
			case 1:
				return literal()
			default:
				return (descWidth+1)*float64(binary.LittleEndian.Uint16([]byte{next(), next()}))/65536 - 1
			}
		}
		for i := range lanes {
			l := &lanes[i]
			l.gx, l.gy = grad(), grad()
			switch next() % 4 {
			case 0:
				l.ang = math.Nextafter(angle, -4)
			case 1:
				l.ang = angle - 1e-3
			default:
				l.ang = math.Atan2(l.gy, l.gx)
			}
			if !(l.ang >= -math.Pi) { // keep ang − angle in the loops' reach, as atan2 does
				l.ang = math.NaN()
			}
			l.w = math.Exp(-8 * float64(next()) / 255)
			if k := next(); k < 8 {
				l.w = literal()
			}
			l.bx, l.by = coord(), coord()
		}
		checkDescBins(t, lanes, angle)
	})
}

// TestKeptRunMatchesCut holds keptRun to the per-pixel bin cut it
// replaced: for random keypoint angles (and the axis angles, where sin or
// cos is ±0, and NaN), random scales and keypoint positions from the
// border inward, every window row's run must be exactly the columns whose
// bin coordinates pass !(bx <= −1 || bx >= descWidth || by <= −1 ||
// by >= descWidth), computed as computeDescriptorInto computes them.
func TestKeptRunMatchesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	angles := []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2, math.Nextafter(2*math.Pi, 0), math.NaN()}
	for range 400 {
		angles = append(angles, 2*math.Pi*rng.Float64())
	}
	rows := 0
	for k, angle := range angles {
		cosT, sinT := math.Cos(angle), math.Sin(angle)
		sigma := 0.5 + 6*rng.Float64()
		histWidth := 3 * sigma
		radius := max(1, int(math.Round(histWidth*math.Sqrt2*(descWidth+1)*0.5)))
		gw, gh := 64+rng.Intn(200), 64+rng.Intn(200)
		xi, yi := 1+rng.Intn(gw-2), 1+rng.Intn(gh-2)
		if k%3 == 0 { // hug a border
			xi = []int{1, 2, gw - 3, gw - 2}[rng.Intn(4)]
		}
		for dy := max(-radius, 1-yi); dy <= min(radius, gh-2-yi); dy++ {
			sdy, cdy := sinT*float64(dy), cosT*float64(dy)
			xlo, xhi := max(-radius, 1-xi), min(radius, gw-2-xi)
			lo, hi := keptRun(cosT, sdy, histWidth, xlo, xhi)
			lo, hi = keptRun(-sinT, cdy, histWidth, lo, hi)
			for dx := xlo; dx <= xhi; dx++ {
				rx := (cosT*float64(dx) + sdy) / histWidth
				ry := (-sinT*float64(dx) + cdy) / histWidth
				bx := rx + descWidth/2 - 0.5
				by := ry + descWidth/2 - 0.5
				cut := bx <= -1 || bx >= descWidth || by <= -1 || by >= descWidth
				if in := dx >= lo && dx <= hi; in == cut {
					t.Fatalf("angle %v σ=%v dy=%d dx=%d (bx %v, by %v): cut %t, but the run [%d, %d] says kept %t",
						angle, sigma, dy, dx, bx, by, cut, lo, hi, in)
				}
			}
			rows++
		}
	}
	t.Logf("%d window rows agree", rows)
}
