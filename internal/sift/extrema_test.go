package sift

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"texid/internal/texture"
)

// extremaThresholds are the contrast thresholds the extremum tables run
// at: one float32 holds exactly (0.25), two it does not, one whose float32
// rounds up (0.1) and one whose float32 rounds down (0.7), a NaN, which
// passes every pixel, and 0.
var extremaThresholds = []float64{0.25, 0.1, 0.7, math.NaN(), 0}

// extremaPixel draws one DoG pixel from kind and next: ±0, NaN, ±Inf, the
// float32 contrast edge (±t32 and the float32 just below it), a small
// multiple of 1/8 (so ties are common), a copy of the pixel before it, or
// four literal bytes.
func extremaPixel(kind byte, next func() byte, t32 float32, last float32) float32 {
	sign := float32(1 - 2*int(kind>>7))
	switch kind % 8 {
	case 0:
		return sign * 0
	case 1:
		return float32(math.NaN())
	case 2:
		return sign * float32(math.Inf(1))
	case 3:
		if next()%2 == 0 {
			return sign * t32
		}
		return sign * math.Nextafter32(t32, 0)
	case 4, 5:
		return float32(int8(next())%17) / 8
	case 6:
		return last
	default:
		var b [4]byte
		for i := range b {
			b[i] = next()
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
}

// plantExtrema sets every third interior pixel of d1 from kind: to the
// maximum or minimum of its 26 neighbours (a tie), one float32 past it (a
// strict extremum) or NaN, so candidates are common in a random slab; or
// it plants a centre on the contrast edge (±t32 or the float32 below it)
// with every neighbour +0, or a ±0 centre with every neighbour ±1/8, which
// only the zero centre's branch of the extremum test tells apart.
func plantExtrema(d0, d1, d2 *texture.Image, t32 float32, next func() byte) {
	w := d1.W
	for y := 1; y < d1.H-1; y++ {
		for x := 1 + int(next())%3; x < w-1; x += 3 {
			hi, lo := float32(math.Inf(-1)), float32(math.Inf(1))
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					i := (y+dy)*w + x + dx
					nb := []float32{d0.Pix[i], d2.Pix[i]}
					if dx != 0 || dy != 0 {
						nb = append(nb, d1.Pix[i])
					}
					for _, v := range nb {
						hi, lo = max(hi, v), min(lo, v)
					}
				}
			}
			c := y*w + x
			switch next() % 8 {
			case 0:
				d1.Pix[c] = hi
			case 1:
				d1.Pix[c] = math.Nextafter32(hi, float32(math.Inf(1)))
			case 2:
				d1.Pix[c] = lo
			case 3:
				d1.Pix[c] = math.Nextafter32(lo, float32(math.Inf(-1)))
			case 4:
				d1.Pix[c] = float32(math.NaN())
			case 5, 6:
				k := next()
				v, nb := float32(0), float32(1)/8
				if kind := next(); kind%2 == 0 {
					v, nb = t32, 0
					if kind%4 == 0 {
						v = math.Nextafter32(t32, 0)
					}
				}
				if k%2 == 1 {
					v, nb = -v, -nb
				}
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						i := (y+dy)*w + x + dx
						d0.Pix[i], d1.Pix[i], d2.Pix[i] = nb, nb, nb
					}
				}
				d1.Pix[c] = v
			}
		}
	}
}

// extremaSlab is a W×H slab of three DoG levels drawn by extremaPixel
// from data (wrapping around), with plantExtrema's centres.
func extremaSlab(W, H int, t32 float32, data []byte) (d0, d1, d2 *texture.Image) {
	pos := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return b
	}
	var last float32
	ims := [3]*texture.Image{}
	for k := range ims {
		ims[k] = texture.NewImage(W, H)
		for i := range ims[k].Pix {
			last = extremaPixel(next(), next, t32, last)
			ims[k].Pix[i] = last
		}
	}
	plantExtrema(ims[0], ims[1], ims[2], t32, next)
	return ims[0], ims[1], ims[2]
}

// checkExtrema runs candidates on both tiers over the n centres from
// (x, y) and fails unless their masks match bit for bit. Every mask word
// past ⌈n/16⌉ holds a sentinel that neither may overwrite. It returns the
// candidate count.
func checkExtrema(t *testing.T, d0, d1, d2 *texture.Image, x, y, n int, thr float64) int {
	t.Helper()
	const sentinel = 0xbeef
	words := (n + 15) / 16
	var got, want [extremaChunk/16 + 2]uint16
	for i := range got {
		got[i], want[i] = sentinel, sentinel
	}
	candidates(want[:words], d0, d1, d2, x, y, n, thr, false)
	candidates(got[:words], d0, d1, d2, x, y, n, thr, true)
	for i := words; i < len(got); i++ {
		if got[i] != sentinel {
			t.Fatalf("n=%d: mask word %d past the end was overwritten with %#x", n, i, got[i])
		}
	}
	count := 0
	for b := range words {
		if got[b] != want[b] {
			j := 16*b + bits.TrailingZeros16(got[b]^want[b])
			c := y*d1.W + x + j
			t.Fatalf("thr=%v n=%d centre %d (v=%v, ±1 in d1 %v %v, d0 %v, d2 %v): native %t, scalar %t", thr, n, j,
				d1.Pix[c], d1.Pix[c-1], d1.Pix[c+1], d0.Pix[c], d2.Pix[c], got[b]>>(j%16)&1 != 0, want[b]>>(j%16)&1 != 0)
		}
		if n%16 != 0 && b == words-1 && want[b]>>(n%16) != 0 {
			t.Fatalf("n=%d: the scalar mask sets bits past the last centre", n)
		}
		count += bits.OnesCount16(want[b])
	}
	return count
}

// TestExtremaTiersMatch holds extrema16, through candidates, to the scalar
// contrast and 26-neighbour tests bit for bit: slabs of extremaSlab's
// pixels (±0 and NaN centres and neighbours, ties, ±Inf, the float32
// contrast edge) at every extremaThresholds threshold; whole rows of
// 16k−1, 16k and 16k+1 centres and past one extremaChunk; and windows of
// every length 0–17 and 128 at every offset of a sweep, so each kind lands
// in every lane and every tail length runs. Skips where the host lacks the
// native tier; scripts/check.sh runs it with -v, so the log says which.
func TestExtremaTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F extremum tier on this host/build")
	}
	rng := rand.New(rand.NewSource(38))
	data := make([]byte, 1<<16)
	rng.Read(data)
	total, seen := 0, 0
	for _, thr := range extremaThresholds {
		t32 := contrast32(thr)
		for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 47, 48, 49, 127, 128, 129, extremaChunk + 17} {
			d0, d1, d2 := extremaSlab(n+2, 5, t32, data[rng.Intn(len(data)/2):])
			for y := 1; y < 4; y++ {
				total += checkExtrema(t, d0, d1, d2, 1, y, n, thr)
				seen += n
			}
		}
		d0, d1, d2 := extremaSlab(200, 4, t32, data[rng.Intn(len(data)/2):])
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 128} {
			for x := 1; x+n <= 199; x += max(1, n/3) {
				total += checkExtrema(t, d0, d1, d2, x, 1+x%2, n, thr)
				seen += n
			}
		}
	}
	if total == 0 || total == seen {
		t.Fatalf("%d of %d centres were candidates; the table must have both kinds", total, seen)
	}
	t.Logf("tiers agree; %d of %d centres were candidates", total, seen)
}

// FuzzExtremaTiers is TestExtremaTiersMatch over every input: checkExtrema
// on one row of shape%131 centres, the whole middle row of a 3-row slab as
// wide as that plus its border, so the last block's loads end at the end
// of the slab's pixels; the threshold is extremaThresholds[shape>>8 %
// 5]. data draws the pixels through extremaSlab. The seed corpus under
// testdata/fuzz is the table's row widths and tail lengths.
func FuzzExtremaTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		if !useAVX512 {
			t.Skip("no AVX512F extremum tier on this host/build")
		}
		n := int(shape % 131)
		thr := extremaThresholds[int(shape>>8)%len(extremaThresholds)]
		d0, d1, d2 := extremaSlab(n+2, 3, contrast32(thr), data)
		checkExtrema(t, d0, d1, d2, 1, 1, n, thr)
	})
}

// TestContrast32 holds contrast32 to its contract: for thresholds a
// float32 holds, rounds up to or down to, past the float32 range, NaN and
// subnormal, every float32 near the threshold is below it in float64
// exactly when it is below contrast32 in float32.
func TestContrast32(t *testing.T) {
	for _, thr := range []float64{0.25, 0.1, 0.7, 0.003, 1e-40, -0.1, 0, math.MaxFloat32, 2 * math.MaxFloat32, math.Inf(1), math.NaN()} {
		t32 := contrast32(thr)
		v := float32(thr)
		for range 3 {
			v = math.Nextafter32(v, float32(math.Inf(-1)))
		}
		for range 7 {
			if a, b := float64(v) < thr, v < t32; a != b {
				t.Errorf("thr=%v: %v < thr is %t in float64, %v < contrast32 %v is %t", thr, v, a, v, t32, b)
			}
			v = math.Nextafter32(v, float32(math.Inf(1)))
		}
	}
}

// TestDetectMatchesScan holds detectExtrema to the per-pixel scan it
// replaced — the contrast test, isExtremum and refine for every pixel of
// every slab in x order — on both tiers, for an image whose upsampled rows
// hold more than one extremaChunk of centres, so a row's chunks and the
// bit walk within them are covered.
func TestDetectMatchesScan(t *testing.T) {
	gp := texture.DefaultGenParams()
	gp.Size = 64
	src := texture.Generate(38, gp)
	im := texture.NewImage(300, 40)
	for y := range im.H {
		for x := range im.W {
			im.Pix[y*im.W+x] = src.Pix[(y%64)*64+x%64]
		}
	}
	p := buildPyramidArena(nil, im)
	var want []Keypoint
	for o := 0; o < p.nOctaves; o++ {
		scale := math.Pow(2, float64(o)) * coordScale
		for l := 1; l < len(p.dog[o])-1; l++ {
			d0, d1, d2 := p.dog[o][l-1], p.dog[o][l], p.dog[o][l+1]
			for y := 5; y < d1.H-5; y++ {
				for x := 5; x < d1.W-5; x++ {
					v := d1.Pix[y*d1.W+x]
					if math.Abs(float64(v)) < contrastThreshold*0.5 || !isExtremum(d0, d1, d2, x, y, v) {
						continue
					}
					if kp, ok := refine(p, o, l, x, y); ok {
						kp.X *= scale
						kp.Y *= scale
						kp.Sigma *= scale
						want = append(want, kp)
					}
				}
			}
		}
	}
	if p.dog[0][0].W-10 <= extremaChunk || len(want) == 0 {
		t.Fatalf("octave 0 has %d centres per row and the scan %d keypoints; want more than %d and some", p.dog[0][0].W-10, len(want), extremaChunk)
	}
	got := detectExtrema(p, new(arena))
	if len(got) != len(want) {
		t.Fatalf("detectExtrema found %d keypoints, the per-pixel scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keypoint %d: detectExtrema %+v, per-pixel scan %+v", i, got[i], want[i])
		}
	}
}
