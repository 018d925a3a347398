package sift

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Satan's branch boundaries (GOROOT math/atan.go).
const (
	satanLow  = 0.66
	tan3pio8  = 2.41421356237309504880
	expDomain = 700
)

// evalEdgeValues are the operands every TestEvalTiersMatch row set is built
// from: ±0, the smallest and largest subnormals, MinNormal-ish values, ±1,
// small integers as pixel differences, both satan boundaries and their
// neighbours, huge finite values, ±Inf and NaN.
func evalEdgeValues() []float64 {
	pos := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		1e-300, 1e-160, 0.5, 1, 2, 3, 255,
		satanLow, math.Nextafter(satanLow, 0), math.Nextafter(satanLow, 1),
		tan3pio8, math.Nextafter(tan3pio8, 0), math.Nextafter(tan3pio8, 3),
		1e160, 1e300, math.MaxFloat64, math.Inf(1),
	}
	vals := []float64{math.NaN()}
	for _, v := range pos {
		vals = append(vals, v, -v)
	}
	return vals
}

// atan2Rows is the table's (y, x) pairs: every pair of evalEdgeValues, so
// ±0 gradients (−0 as x included), quotients that underflow to 0 and
// overflow to Inf, and non-finite operands all occur; y/x exactly 0.66 and
// Tan3pio8 and their neighbours in all four quadrants and at two scales
// (x = ±1 and ±2^-3); and 4096 pixel-difference gradients, small signed
// integers and float32 differences of values in [0, 1).
func atan2Rows(rng *rand.Rand) (ys, xs []float64) {
	edge := evalEdgeValues()
	for _, y := range edge {
		for _, x := range edge {
			ys, xs = append(ys, y), append(xs, x)
		}
	}
	for _, b := range []float64{satanLow, tan3pio8} {
		for _, q := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 4)} {
			for _, x := range []float64{1, 0.125} {
				for _, s := range [][2]float64{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}} {
					ys, xs = append(ys, s[0]*q*x), append(xs, s[1]*x)
				}
			}
		}
	}
	for i := 0; i < 4096; i++ {
		var y, x float64
		if i%2 == 0 {
			y, x = float64(rng.Intn(9)-4), float64(rng.Intn(9)-4)
		} else {
			y = float64(rng.Float32() - rng.Float32())
			x = float64(rng.Float32() - rng.Float32())
		}
		ys, xs = append(ys, y), append(xs, x)
	}
	return ys, xs
}

// expRows is the table's Exp arguments: evalEdgeValues, ±700 and their
// neighbours, Exp's overflow threshold 709.78 and −745 (the smallest
// argument whose result is not 0), and 4096 draws each from the descriptor
// and orientation range [−8, 0] and from [−750, 750].
func expRows(rng *rand.Rand) []float64 {
	xs := evalEdgeValues()
	for _, v := range []float64{expDomain, -expDomain} {
		xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, 2*v))
	}
	xs = append(xs, 7.09782712893384e+02, 709.78, -745, -745.1, -708.4, -720)
	for i := 0; i < 4096; i++ {
		xs = append(xs, -8*rng.Float64(), 1500*rng.Float64()-750)
	}
	return xs
}

// expSpecial and atan2Special are the lanes the kernels must flag: those
// outside the domain on which they replay Go's math without its special
// cases.
func expSpecial(x float64) bool { return !(math.Abs(x) <= expDomain) }

func atan2Special(y, x float64) bool {
	finite := func(v float64) bool { return v != 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
	return !finite(y) || !finite(x) || !finite(y/x)
}

// checkEval runs both wrappers over lanes [lo, lo+n) of the rows against
// math, bit for bit, and, where the host has the native tier, the raw
// kernels too: every lane they leave unflagged must hold math's bits and
// they must flag exactly the lanes outside their domain (a kernel that
// flagged everything would pass through the wrapper's fallback alone).
//
// Every lane of dst's array past n holds a sentinel, which no call may
// overwrite: a store past the slice would show there.
func checkEval(t *testing.T, ys, xs, es []float64, lo, n int) {
	t.Helper()
	var got [2*evalChunk + 8]float64
	const sentinel = 0x7ff4dead0000beef // a signalling NaN no kernel produces
	for i := range got {
		got[i] = math.Float64frombits(sentinel)
	}
	dst := got[:n]
	defer func() {
		for i, v := range got[n:] {
			if math.Float64bits(v) != sentinel {
				t.Errorf("n=%d: lane %d past the end was overwritten with %#x", n, n+i, math.Float64bits(v))
				return
			}
		}
	}()
	atan2Into(dst, ys[lo:lo+n], xs[lo:lo+n])
	for i, v := range dst {
		y, x := ys[lo+i], xs[lo+i]
		if want := math.Atan2(y, x); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: atan2Into(%v, %v) = %#x, math.Atan2 %#x", n, i, y, x, math.Float64bits(v), math.Float64bits(want))
		}
	}
	expInto(dst, es[lo:lo+n])
	for i, v := range dst {
		x := es[lo+i]
		if want := math.Exp(x); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: expInto(%v) = %#x, math.Exp %#x", n, i, x, math.Float64bits(v), math.Float64bits(want))
		}
	}
	if !useAVX512 || n > evalChunk {
		return
	}
	var special [evalChunk / 8]uint8
	atan2x8(dst, ys[lo:lo+n], xs[lo:lo+n], special[:])
	for i, v := range dst {
		y, x := ys[lo+i], xs[lo+i]
		flagged := special[i/8]>>(i%8)&1 != 0
		if flagged != atan2Special(y, x) {
			t.Fatalf("n=%d lane %d: atan2x8 flags (%v, %v): %t", n, i, y, x, flagged)
		}
		if want := math.Atan2(y, x); !flagged && math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: atan2x8(%v, %v) = %#x, math.Atan2 %#x", n, i, y, x, math.Float64bits(v), math.Float64bits(want))
		}
	}
	checkTailMask(t, "atan2x8", special[:], n)
	special = [evalChunk / 8]uint8{}
	exp8(dst, es[lo:lo+n], special[:])
	for i, v := range dst {
		x := es[lo+i]
		flagged := special[i/8]>>(i%8)&1 != 0
		if flagged != expSpecial(x) {
			t.Fatalf("n=%d lane %d: exp8 flags %v: %t", n, i, x, flagged)
		}
		if want := math.Exp(x); !flagged && math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("n=%d lane %d: exp8(%v) = %#x, math.Exp %#x", n, i, x, math.Float64bits(v), math.Float64bits(want))
		}
	}
	checkTailMask(t, "exp8", special[:], n)
}

// checkTailMask fails when a kernel wrote a special byte past the last
// group of n lanes or flagged a lane past n.
func checkTailMask(t *testing.T, kernel string, special []uint8, n int) {
	t.Helper()
	for g, m := range special {
		if lanes := n - 8*g; lanes < 8 && m>>max(lanes, 0) != 0 {
			t.Fatalf("n=%d: %s special byte %d = %#x flags lanes past the end", n, kernel, g, m)
		}
	}
}

// TestEvalTiersMatch holds expInto and atan2Into, on the host's tier, bit
// for bit to math.Exp and math.Atan2 (the portable tier, which is the
// oracle), and the raw kernels to their flag contract: the rows of
// atan2Rows and expRows, cut into windows of every length 0–17 and 128 at
// every offset of a sweep, so each edge value lands in every lane of every
// mask byte and every tail length runs; then each whole row set, longer
// than one evalChunk. Skips where the host lacks the native tier;
// scripts/check.sh runs it with -v, so the log says which.
func TestEvalTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F evaluate tier on this host/build")
	}
	rng := rand.New(rand.NewSource(37))
	ys, xs := atan2Rows(rng)
	es := expRows(rng) // longer than ys
	edge := len(evalEdgeValues())
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, evalChunk}
	for _, n := range lens {
		for lo := 0; lo+n <= edge*edge+64; lo += max(1, n/3) {
			checkEval(t, ys, xs, es, lo, n)
		}
	}
	for lo := 0; lo+2*evalChunk <= len(ys); lo += 2 * evalChunk {
		checkEval(t, ys, xs, es, lo, 2*evalChunk)
	}
}

// FuzzEvalTiers is TestEvalTiersMatch over every input: checkEval on one
// window of n%(evalChunk+1) lanes whose y, x and Exp operands data draws in
// turn. Each operand takes one kind byte — ±0, a ±subnormal, ±Inf or NaN,
// a small signed integer over 4 (a pixel difference), a ±700 neighbour, or
// eight literal bytes — and data wraps around when it runs out. The seed
// corpus under testdata/fuzz is the table's rows as literals.
func FuzzEvalTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		lanes := int(n) % (evalChunk + 1)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		operand := func() float64 {
			kind := next()
			sign := float64(1 - 2*int(kind>>7))
			switch kind % 8 {
			case 0:
				return sign * 0
			case 1:
				return sign * math.Float64frombits(uint64(next())|uint64(next())<<8)
			case 2:
				return [4]float64{math.Inf(1), math.Inf(-1), math.NaN(), sign * math.MaxFloat64}[next()%4]
			case 3, 4:
				return float64(int8(next())) / 4
			case 5:
				return math.Float64frombits(math.Float64bits(sign*expDomain) + uint64(int8(next())))
			default:
				var b [8]byte
				for i := range b {
					b[i] = next()
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
		}
		ys, xs, es := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
		for i := range ys {
			ys[i], xs[i], es[i] = operand(), operand(), operand()
		}
		checkEval(t, ys, xs, es, 0, lanes)
	})
}

// perPixelDescriptor adds one pixel into hist as computeDescriptorInto did
// before its gather → evaluate → scatter passes: Atan2 and Exp for the
// pixel alone, then the rolled trilinear loops with their range checks and
// the % descBins wrap with its negative fix.
func perPixelDescriptor(hist *descHist, gx, gy, arg, bx, by, angle float64) {
	mag := math.Sqrt(gx*gx + gy*gy)
	ang := math.Atan2(gy, gx) - angle
	for ang < 0 {
		ang += 2 * math.Pi
	}
	for ang >= 2*math.Pi {
		ang -= 2 * math.Pi
	}
	ob := ang / (2 * math.Pi) * descBins
	v := mag * math.Exp(arg)
	x0, y0, o0 := int(math.Floor(bx)), int(math.Floor(by)), int(math.Floor(ob))
	fx, fy, fo := bx-float64(x0), by-float64(y0), ob-float64(o0)
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
				hist[((yb+1)*(descWidth+2)+xb+1)*descBins+obn] += wo
			}
		}
	}
}

// perPixelOrientation adds one pixel into hist as assignOrientations did
// before its passes.
func perPixelOrientation(hist *[orientBins]float64, gx, gy, arg float64) {
	mag := math.Sqrt(gx*gx + gy*gy)
	ang := math.Atan2(gy, gx)
	bin := int(math.Floor((ang + math.Pi) / (2 * math.Pi) * orientBins))
	if bin >= orientBins {
		bin = orientBins - 1
	}
	hist[bin] += math.Exp(arg) * mag
}

// sameBins reports whether two histograms hold the same bits, a NaN
// matching any NaN.
func sameBins(got, want []float64) (int, bool) {
	for i, w := range want {
		if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, true
}

// TestScatterMatchesPerPixel holds scatterDescriptor and scatterOrientation
// to the per-pixel loops they replaced, bit for bit in every bin, in
// process: 600 pixels per keypoint angle (so whole chunks and a partial
// one), at angles 0, 1, π, 1.9π and the largest double below 2π. The
// pixels are small-integer and float32-difference gradients, the zero
// gradient, and these rows: a gradient just clockwise of angle 0 (ob in
// [7, 8), so the upper orientation share wraps from bin 8 to 0), gradients
// that put ang below −2π at angle 1.9π (two turns of the ang < 0 loop), a
// NaN gradient (descriptor only: the per-pixel orientation loop indexed
// out of range on one, and still would) whose int conversion the lower
// wrap keeps in range, and a +0/−1 gradient, whose atan2 is π and whose
// orientation bin is clamped from 36. Bin coordinates are uniform in
// (−1, 4) with the cut's extremes mixed in.
func TestScatterMatchesPerPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	angles := []float64{0, 1, math.Pi, 1.9 * math.Pi, math.Nextafter(2*math.Pi, 0)}
	coord := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Nextafter(-1, 0)
		case 1:
			return math.Nextafter(descWidth, 0)
		default:
			return 5*rng.Float64() - 1
		}
	}
	for _, angle := range angles {
		var got, want descHist
		var gotO, wantO [orientBins]float64
		var c descChunk
		var co orientChunk
		add := func(gx, gy, arg, bx, by float64, orient bool) {
			perPixelDescriptor(&want, gx, gy, arg, bx, by, angle)
			c.gx[c.n], c.gy[c.n], c.arg[c.n], c.bx[c.n], c.by[c.n] = gx, gy, arg, bx, by
			if c.n++; c.n == evalChunk {
				scatterDescriptor(&got, &c, angle)
			}
			if !orient {
				return
			}
			perPixelOrientation(&wantO, gx, gy, arg)
			co.gx[co.n], co.gy[co.n], co.arg[co.n] = gx, gy, arg
			if co.n++; co.n == evalChunk {
				scatterOrientation(&gotO, &co)
			}
		}
		add(1, -1e-3, -0.5, 1.25, 1.5, true)
		add(-1, -1, -0.25, 0.5, 2.5, true)
		add(0.2, -1, -0.75, 3.5, -0.5, true)
		add(math.NaN(), 1, -0.5, 0.5, 0.5, false)
		add(-1, 0, -1, 2, 2, true)
		add(0, 0, -1, 1, 1, true)
		for i := 0; i < 594; i++ {
			var gx, gy float64
			if i%2 == 0 {
				gx, gy = float64(rng.Intn(9)-4), float64(rng.Intn(9)-4)
			} else {
				gx, gy = float64(rng.Float32()-rng.Float32()), float64(rng.Float32()-rng.Float32())
			}
			add(gx, gy, -8*rng.Float64(), coord(), coord(), true)
		}
		scatterDescriptor(&got, &c, angle)
		scatterOrientation(&gotO, &co)
		if c.n != 0 || co.n != 0 {
			t.Fatalf("angle %v: the scatters left %d and %d pixels in their chunks", angle, c.n, co.n)
		}
		if b, ok := sameBins(got[:], want[:]); !ok {
			t.Fatalf("angle %v: descriptor bin (%d, %d, %d) = %#x, per-pixel %#x", angle,
				b/descRow, b%descRow/descBins, b%descBins, math.Float64bits(got[b]), math.Float64bits(want[b]))
		}
		if i, ok := sameBins(gotO[:], wantO[:]); !ok {
			t.Fatalf("angle %v: orientation bin %d = %#x, per-pixel %#x", angle, i, math.Float64bits(gotO[i]), math.Float64bits(wantO[i]))
		}
	}
}
