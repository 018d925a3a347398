package sift

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"texid/internal/texture"
)

// expProbe is an argument whose math.Exp bits differ between the two amd64
// variants of Go's Exp: the VFMADD213SD branch (AVX2 and FMA hosts) and the
// MULSD/ADDSD one. expProbeFMA is the FMA branch's result; the other gives
// one ulp less.
const (
	expProbe    = -0.0576171875
	expProbeFMA = 0x3fee355718cc41b3
)

// extractGolden holds the sha256 of every extraction TestExtractGolden runs,
// keyed by its case name, as computed on an AVX2 + FMA amd64 host.
var extractGolden = map[string]string{
	"128px/root=false/max=768": "77017ddbcaef66ffa953de728b6c059a5b61dc45634e7175c34d4cb1e6f9b51c",
	"128px/root=false/max=0":   "77017ddbcaef66ffa953de728b6c059a5b61dc45634e7175c34d4cb1e6f9b51c",
	"128px/root=true/max=768":  "110edc7370f2ccf49cb72906667cb58dd672ee5ea0101ab807491a574dc62d75",
	"128px/root=true/max=0":    "110edc7370f2ccf49cb72906667cb58dd672ee5ea0101ab807491a574dc62d75",
	"256px/root=false/max=768": "d8889c07476a839542a9d12c74e08bd9b3cd190e67351897ded6f4c8678943fa",
	"256px/root=false/max=0":   "67c375c542d6532fc52ea5b02fb04ed50b9518bebe4eca271029e28af16e88da",
	"256px/root=true/max=768":  "8c99160d6b23aa45ff6c43e4db907b07689cbbb7d69118f5e122300cc2015ec7",
	"256px/root=true/max=0":    "48db2c7b7d3665bc4a6b2f607b910d1260d9990cb041b7b4163a0ef50f17e8c6",
}

// TestExtractGolden pins Extract's output across processes and builds: a
// sha256 over every keypoint field (X, Y, Sigma, Angle, Response as float64
// bits, Octave and Level) and every descriptor word's bits, for a 128 px
// and a 256 px texture, RootSIFT off and on, MaxFeatures 768 and 0. Every
// other determinism test compares runs inside one process, so a reordered
// histogram add or a changed rounding in any stage passes them all; this
// one compares against digests recorded in the source. It holds on every
// kernel tier (natively and under TEXID_NOASM=1) and at any GOAMD64 level.
//
// The digests depend on which math.Exp the host runs: Go's amd64 Exp takes
// an FMA branch when the CPU has AVX2 and FMA, and arm64 runs a third
// variant. The test reads the variant from expProbe and skips on any but
// the recorded one; owning Exp and Atan2 in the repo (ROADMAP, "One
// determinism contract across hosts") removes the skip.
func TestExtractGolden(t *testing.T) {
	if got := math.Float64bits(math.Exp(expProbe)); got != expProbeFMA {
		t.Skipf("math.Exp(%v) = %#x, not the AVX2+FMA variant's %#x: the digests were recorded on that variant (ROADMAP's item \"One determinism contract across hosts\" removes this skip)",
			expProbe, got, uint64(expProbeFMA))
	}
	for _, size := range []int{128, 256} {
		p := texture.DefaultGenParams()
		p.Size = size
		im := texture.Generate(int64(size)+7, p)
		for _, root := range []bool{false, true} {
			for _, maxFeat := range []int{768, 0} {
				name := fmt.Sprintf("%dpx/root=%t/max=%d", size, root, maxFeat)
				cfg := DefaultConfig()
				cfg.RootSIFT = root
				cfg.MaxFeatures = maxFeat
				f := Extract(im, cfg)
				if got := featuresDigest(f); got != extractGolden[name] {
					t.Errorf("%s: %d features, digest %s, want %s", name, f.Count(), got, extractGolden[name])
				}
			}
		}
	}
}

// featuresDigest is the hex sha256 of f's keypoints and descriptor bits,
// little-endian, keypoint by keypoint and then the descriptor matrix word
// by word. Every NaN hashes as math.NaN()'s bits: which NaN an operation
// on two NaNs returns depends on its operand order, which the compiler may
// commute (a -race build does, on the hostile inputs), and the tier tests
// let a NaN match any NaN too.
func featuresDigest(f *Features) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(f.Count()))
	for _, k := range f.Keypoints {
		for _, v := range []float64{k.X, k.Y, k.Sigma, k.Angle, k.Response} {
			if v != v {
				v = math.NaN()
			}
			put(math.Float64bits(v))
		}
		put(uint64(k.Octave))
		put(uint64(k.Level))
	}
	for _, v := range f.Descriptors.Data {
		if v != v {
			v = float32(math.NaN())
		}
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
		h.Write(b[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostileGolden holds the sha256 of every extraction TestExtractGoldenHostile
// runs, keyed by its case name, recorded as extractGolden's were.
var hostileGolden = map[string]string{
	"128px/NaN×1":    "f4a2fb49366ed43b6b58876d6308663b4b39f074d0b459c0c39ad8e4c91e6fe9",
	"128px/NaN×50":   "1f6ce5b63cc8009a4b69d6a9b69760d9d64167ac8f7d379dc2ff44e0bd8b5c8d",
	"128px/NaN×400":  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
	"128px/+Inf×1":   "f4a2fb49366ed43b6b58876d6308663b4b39f074d0b459c0c39ad8e4c91e6fe9",
	"128px/+Inf×50":  "1f6ce5b63cc8009a4b69d6a9b69760d9d64167ac8f7d379dc2ff44e0bd8b5c8d",
	"128px/+Inf×400": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
	"128px/-Inf×1":   "f4a2fb49366ed43b6b58876d6308663b4b39f074d0b459c0c39ad8e4c91e6fe9",
	"128px/-Inf×50":  "1f6ce5b63cc8009a4b69d6a9b69760d9d64167ac8f7d379dc2ff44e0bd8b5c8d",
	"128px/-Inf×400": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
}

// TestExtractGoldenHostile is TestExtractGolden on inputs no camera
// produces: the 128 px texture with NaN, +Inf or −Inf written into 1, 50
// or 400 pixels drawn from a fixed seed, at DefaultConfig. Non-finite
// pixels spread through the upsample and the blur as NaN (the bilinear
// upsample's 0·Inf already makes one), into NaN DoG values, gradients,
// magnitudes and angles, so the extremum scan's NaN rules and the evaluate
// and scatter tiers' flagged lanes reach the digest; 400 pixels leave no
// keypoint. The digests were recorded before those tiers landed. It skips
// where TestExtractGolden does.
func TestExtractGoldenHostile(t *testing.T) {
	if got := math.Float64bits(math.Exp(expProbe)); got != expProbeFMA {
		t.Skipf("math.Exp(%v) = %#x, not the AVX2+FMA variant's %#x: the digests were recorded on that variant (ROADMAP's item \"One determinism contract across hosts\" removes this skip)",
			expProbe, got, uint64(expProbeFMA))
	}
	p := texture.DefaultGenParams()
	p.Size = 128
	base := texture.Generate(128+7, p)
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, n := range []int{1, 50, 400} {
			name := fmt.Sprintf("128px/%v×%d", v, n)
			im := texture.NewImage(base.W, base.H)
			copy(im.Pix, base.Pix)
			rng := rand.New(rand.NewSource(int64(n)))
			for range n {
				im.Pix[rng.Intn(len(im.Pix))] = v
			}
			f := Extract(im, DefaultConfig())
			if got := featuresDigest(f); got != hostileGolden[name] {
				t.Errorf("%s: %d features, digest %s, want %s", name, f.Count(), got, hostileGolden[name])
			}
		}
	}
}
