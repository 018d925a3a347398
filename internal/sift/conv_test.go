package sift

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/texture"
)

// blurSigmas is every σ buildPyramidArena blurs with — the base blur on
// the upsampled input, then each level's incremental σ — plus the base
// blur over the camera blur alone (≈1.52), 0.3 (a five-tap kernel) and 7
// (57 taps, wider than most test shapes).
func blurSigmas() []float64 {
	p := buildPyramidArena(nil, texture.NewImage(32, 32))
	const upBlur = 2 * initialBlur
	sigmas := []float64{
		math.Sqrt(baseSigma*baseSigma - upBlur*upBlur),
		math.Sqrt(baseSigma*baseSigma - initialBlur*initialBlur),
	}
	sigmas = append(sigmas, p.sigmas[1:]...)
	return append(sigmas, 0.3, 7)
}

// blurTierShapes are the table's image shapes: both sides below the
// narrowest kernel, 1×N and N×1, widths under 16, at 16 and around its
// multiples (none of 7, 15, 17, 33, 37, 65 and 100 is one), odd shapes, a
// 12×40 and a 40×12 that the widest σ's 57 taps overhang on both sides,
// and the pyramid's real sizes (the 256 px texture and its 512² upsampled
// base).
var blurTierShapes = [][2]int{
	{1, 1}, {3, 2}, {1, 40}, {40, 1}, {1, 300}, {300, 1},
	{7, 9}, {15, 15}, {16, 16}, {17, 33}, {31, 64}, {32, 32},
	{33, 20}, {37, 21}, {64, 31}, {65, 65}, {100, 7}, {7, 100},
	{12, 40}, {40, 12}, {256, 256}, {512, 512},
}

// blurOracle is the nested-loop separable filter with clamped taps that
// both blur tiers must equal: the horizontal chain of every pixel from +0,
// each tap's product rounded and added in ascending order with its source
// column clamped to the row, then the vertical chain from k[0]·tmp with
// its source row clamped to the image. It is the blur's definition, kept
// apart from both tiers' padded buffers.
func blurOracle(im *texture.Image, sigma float64) *texture.Image {
	out := texture.NewImage(im.W, im.H)
	if sigma <= 0 {
		copy(out.Pix, im.Pix)
		return out
	}
	k := gaussianKernel(sigma)
	r := len(k) / 2
	W, H := im.W, im.H
	clamp := func(i, n int) int { return min(max(i, 0), n-1) }
	tmp := make([]float32, W*H)
	for y := range H {
		for x := range W {
			var s float32
			for i, kv := range k {
				s += float32(kv * im.Pix[y*W+clamp(x-r+i, W)])
			}
			tmp[y*W+x] = s
		}
	}
	for y := range H {
		for x := range W {
			s := k[0] * tmp[clamp(y-r, H)*W+x]
			for i := 1; i < len(k); i++ {
				s += float32(k[i] * tmp[clamp(y-r+i, H)*W+x])
			}
			out.Pix[y*W+x] = s
		}
	}
	return out
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

// checkBlur fails unless both tiers' blurs of im at sigma, and the DoG rows
// each writes, equal blurOracle's bit for bit (a NaN matching any NaN):
// the portable loops, blurTiered(…, false), everywhere, and blurArena on
// the host's tier (convH + convV where the host has AVX512F), each with
// the DoG in its own image and written over a copy of the input itself,
// as the pyramid's top blur writes it. It returns the oracle's blur.
func checkBlur(t *testing.T, what string, im *texture.Image, sigma float64) *texture.Image {
	t.Helper()
	want := blurOracle(im, sigma)
	for _, tier := range []struct {
		name    string
		native  bool
		inPlace bool
	}{
		{"portable", false, false}, {"host", useAVX512, false},
		{"portable in-place", false, true}, {"host in-place", useAVX512, true},
	} {
		src, dog := im, texture.NewImage(im.W, im.H)
		if tier.inPlace {
			src = texture.NewImage(im.W, im.H)
			copy(src.Pix, im.Pix)
			dog = src
		}
		got := blurTiered(nil, src, sigma, tier.native, dog)
		if i, ok := sameBlur(got, want); !ok {
			t.Fatalf("%s %dx%d σ=%g: %s tier pixel (%d,%d) = %#x, oracle %#x", what, im.W, im.H, sigma, tier.name,
				i%im.W, i/im.W, math.Float32bits(got.Pix[i]), math.Float32bits(want.Pix[i]))
		}
		for i, v := range dog.Pix {
			if d := want.Pix[i] - im.Pix[i]; math.Float32bits(v) != math.Float32bits(d) && !(v != v && d != d) {
				t.Fatalf("%s %dx%d σ=%g: %s tier DoG pixel (%d,%d) = %#x, blur − input %#x", what, im.W, im.H, sigma,
					tier.name, i%im.W, i/im.W, math.Float32bits(v), math.Float32bits(d))
			}
		}
	}
	return want
}

// TestBlurTiersMatch holds both blur tiers to blurOracle, in process and
// bit for bit: every blurTierShapes shape × every blurSigmas σ and σ = 0
// (a copy) × three fills, at GOMAXPROCS 1 and 4. The fills are a smooth
// texture in [0, 1); signed pixels mixing ±0, ±subnormals, small normals
// and values up to ±MaxFloat32 and ±Inf (so sums overflow and give the
// default NaN); and −2 ulps everywhere, whose horizontal taps sum to −1
// ulp under the narrower kernels and whose vertical products then all
// round to −0, which tells the vertical chain's k[0]·v start from a +0
// start. Each call also writes the DoG rows, which must equal the blur
// minus its input pixel by pixel.
// The two pyramid sizes take the signed fill only, at GOMAXPROCS 4
// (subnormal arithmetic is slow on every tier). Where the host lacks the
// native tier the portable loops are still held to the oracle, and then
// the test skips; scripts/check.sh runs it with -v, so the log says which.
func TestBlurTiersMatch(t *testing.T) {
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
				for _, sigma := range append(sigmas, 0) {
					want := checkBlur(t, fmt.Sprintf("GOMAXPROCS=%d %s", procs, fill.name), im, sigma)
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
	if !useAVX512 {
		t.Skip("no AVX512F blur tier on this host/build; the portable loops match the oracle")
	}
	t.Logf("both tiers match the oracle; %d blurred pixels were −0", negZero)
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

// FuzzBlurTiers is TestBlurTiersMatch over every input: both tiers
// against blurOracle through checkBlur, in process and bit for bit (a NaN
// matching any NaN). shape picks W and H (1…512 each, H cut so that
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
		checkBlur(t, fmt.Sprintf("GOMAXPROCS=%d", procs), im, sigma)
	})
}

// TestUpsampleMatchesBilinear holds upsample2x to its definition: output
// pixel (x, y) is im.Bilinear(x/2, y/2) bit for bit, a NaN matching any
// NaN, on the signed fill with NaN mixed in, for 1×1, 1×7, 7×1, 33×17 and
// 256×256 images at GOMAXPROCS 1 and 4. The last column and row take
// Bilinear's clamped taps.
func TestUpsampleMatchesBilinear(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, wh := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {33, 17}, {256, 256}} {
			im := texture.NewImage(wh[0], wh[1])
			for i := range im.Pix {
				im.Pix[i] = signedPixel(rng)
				if rng.Intn(32) == 0 {
					im.Pix[i] = float32(math.NaN())
				}
			}
			got := upsample2x(nil, im)
			if got.W != 2*im.W || got.H != 2*im.H {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("%dx%d: upsampled to %dx%d", im.W, im.H, got.W, got.H)
			}
			for y := range got.H {
				for x := range got.W {
					g, w := got.Pix[y*got.W+x], im.Bilinear(float64(x)/2, float64(y)/2)
					if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("GOMAXPROCS=%d %dx%d: pixel (%d,%d) = %#x, Bilinear %#x",
							procs, im.W, im.H, x, y, math.Float32bits(g), math.Float32bits(w))
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
