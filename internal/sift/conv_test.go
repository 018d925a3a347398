package sift

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/texture"
)

// blurSigmas is every σ buildPyramidArena blurs with under DefaultConfig —
// the base blur with and without upsampling, then each level's incremental
// σ — plus 0.3 (a five-tap kernel) and 7 (57 taps, wider than most test
// shapes).
func blurSigmas() []float64 {
	cfg := DefaultConfig()
	p := buildPyramidArena(nil, texture.NewImage(32, 32), cfg)
	var sigmas []float64
	for _, ib := range []float64{2 * cfg.InitialBlur, cfg.InitialBlur} {
		sigmas = append(sigmas, math.Sqrt(cfg.Sigma*cfg.Sigma-ib*ib))
	}
	sigmas = append(sigmas, p.sigmas[1:]...)
	return append(sigmas, 0.3, 7)
}

// blurTierShapes are the table's image shapes: both sides below the
// narrowest kernel, 1×N and N×1, widths under 16, at 16 and around its
// multiples, odd shapes, and the pyramid's real sizes (the 256 px texture
// and its 512² upsampled base).
var blurTierShapes = [][2]int{
	{1, 1}, {3, 2}, {1, 40}, {40, 1}, {1, 300}, {300, 1},
	{7, 9}, {15, 15}, {16, 16}, {17, 33}, {31, 64}, {32, 32},
	{33, 20}, {37, 21}, {64, 31}, {65, 65}, {100, 7}, {7, 100},
	{256, 256}, {512, 512},
}

// sameBlur reports whether two blurred images hold the same bits, a NaN
// matching any NaN: the scalar chain's add may take its operands in
// either order, and with two NaN operands that picks the payload.
func sameBlur(got, want *texture.Image) (int, bool) {
	for i, w := range want.Pix {
		g := got.Pix[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i, false
		}
	}
	return 0, true
}

// TestBlurTiersMatch runs blurArena on the host's tier (convH + convV where
// the host has AVX512F) against the portable loops, blurTiered(…, false),
// in process and bit for bit: every blurTierShapes shape × every
// blurSigmas σ × three fills, at GOMAXPROCS 1 and 4. The fills are a
// smooth texture in [0, 1); signed pixels mixing ±0, ±subnormals, small
// normals and values up to ±MaxFloat32 and ±Inf (so sums overflow and
// give the default NaN); and −2 ulps everywhere, whose horizontal taps
// sum to −1 ulp under the narrower kernels and whose vertical products
// then all round to −0, which tells the vertical chain's k[0]·v start from
// a +0 start. The native call also writes the DoG rows, which must equal
// the blur minus its input pixel by pixel. The two pyramid sizes take the signed fill only, at
// GOMAXPROCS 4 (subnormal arithmetic is slow on either tier).
// Skips where the host lacks the native tier; scripts/check.sh runs it
// with -v, so the log says which.
func TestBlurTiersMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX512F blur tier on this host/build")
	}
	rng := rand.New(rand.NewSource(35))
	fills := []struct {
		name string
		px   func() float32
	}{
		{"smooth", func() float32 { return rng.Float32() }},
		{"signed", func() float32 { return signedPixel(rng) }},
		{"tiny", func() float32 { return -math.Float32frombits(2) }},
	}
	sigmas := blurSigmas()
	var negZero int
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, wh := range blurTierShapes {
			for fi, fill := range fills {
				if wh[0] >= 256 && (fi != 1 || procs == 1) {
					continue
				}
				im := texture.NewImage(wh[0], wh[1])
				for i := range im.Pix {
					im.Pix[i] = fill.px()
				}
				for _, sigma := range sigmas {
					dog := texture.NewImage(wh[0], wh[1])
					got, want := blurArena(nil, im, sigma, dog), blurTiered(nil, im, sigma, false, nil)
					if i, ok := sameBlur(got, want); !ok {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("GOMAXPROCS=%d %dx%d %s σ=%g: native pixel (%d,%d) = %#x, portable %#x",
							procs, wh[0], wh[1], fill.name, sigma, i%wh[0], i/wh[0],
							math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
					}
					for i, v := range dog.Pix {
						if d := want.Pix[i] - im.Pix[i]; math.Float32bits(v) != math.Float32bits(d) && !(v != v && d != d) {
							runtime.GOMAXPROCS(prev)
							t.Fatalf("GOMAXPROCS=%d %dx%d %s σ=%g: DoG pixel (%d,%d) = %#x, blur − input %#x",
								procs, wh[0], wh[1], fill.name, sigma, i%wh[0], i/wh[0], math.Float32bits(v), math.Float32bits(d))
						}
					}
					for _, v := range want.Pix {
						if v == 0 && math.Signbit(float64(v)) {
							negZero++
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if negZero == 0 {
		t.Fatal("no blurred pixel was −0; the tiny fill must produce some")
	}
	t.Logf("tiers agree; %d blurred pixels were −0", negZero)
}

// signedPixel draws one pixel of the table's signed fill.
func signedPixel(rng *rand.Rand) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(8) {
	case 0:
		return sign * 0
	case 1:
		return sign * math.Float32frombits(uint32(1+rng.Intn(1<<23-1)))
	case 2:
		return sign * math.MaxFloat32 * rng.Float32()
	case 3:
		if rng.Intn(16) == 0 {
			return sign * float32(math.Inf(1))
		}
		return sign * math.MaxFloat32
	default:
		return sign * rng.Float32()
	}
}

// FuzzBlurTiers is TestBlurTiersMatch over every input: blurArena on the
// host's tier against the portable loops, in process and bit for bit (a
// NaN matching any NaN). shape picks W and H (1…512 each, H cut so that
// W·H ≤ 2^16 and one input runs in milliseconds), the σ (an index into
// blurSigmas) and GOMAXPROCS 1 or 4. data draws the pixels row by row:
// each takes one kind byte — ±0, a ±subnormal, ±MaxFloat32 scaled, a copy
// of the pixel before it (so runs and flat regions occur), a small signed
// integer over 64, or four literal bytes (±Inf and NaN included) — and
// data wraps around when it runs out. The seed corpus under testdata/fuzz
// is the table's shapes.
func FuzzBlurTiers(f *testing.F) {
	sigmas := blurSigmas()
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		W := 1 + int(shape%512)
		H := 1 + int(shape>>9)%512
		H = min(H, 1<<16/W)
		sigma := sigmas[int(shape>>18)%len(sigmas)]
		procs := 1 + 3*int(shape>>24&1)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		im := texture.NewImage(W, H)
		var last float32
		for i := range im.Pix {
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
			im.Pix[i], last = v, v
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		got, want := blurArena(nil, im, sigma, nil), blurTiered(nil, im, sigma, false, nil)
		if i, ok := sameBlur(got, want); !ok {
			t.Fatalf("GOMAXPROCS=%d %dx%d σ=%g: pixel (%d,%d) = %#x on the host's tier, portable %#x",
				procs, W, H, sigma, i%W, i/W, math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
		}
	})
}
