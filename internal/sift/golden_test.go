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
	"128px/root=false/max=768": "c2713652c896186407259998a474a161cc9a25cfb4fbad3c3c3a0d845ef8eca9",
	"128px/root=false/max=0":   "c2713652c896186407259998a474a161cc9a25cfb4fbad3c3c3a0d845ef8eca9",
	"128px/root=true/max=768":  "e5b4e8cc53cf18aea2132cebeea3a49584afb728f5723c6094041ea0fc2a33ad",
	"128px/root=true/max=0":    "e5b4e8cc53cf18aea2132cebeea3a49584afb728f5723c6094041ea0fc2a33ad",
	"256px/root=false/max=768": "512aecff4aa12e00750b96af3a472a91d2a7daa5c2ca9a881e1a7bf91be82eec",
	"256px/root=false/max=0":   "b4519272a6383d2f3f2f790c0b29d3cf910883b7da774a3457373b638aa027f3",
	"256px/root=true/max=768":  "6942d735f4276cd66095460e971bca5749734fd3651417a597900d0517909c6c",
	"256px/root=true/max=0":    "ccc4c0fb55bacced74c4330e709f6fa2f9c52868e5a70ead0588c90bb2714010",
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
	"128px/NaN×1":    "68609fa55b50fd9a87dc574f4b3556655d3937500571d280aea5fc9642bb1638",
	"128px/NaN×50":   "a5282afe72e61cc03a01faccd053def9f549943f3c5bbb7e9cb9cf4c503fd901",
	"128px/NaN×400":  "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
	"128px/+Inf×1":   "68609fa55b50fd9a87dc574f4b3556655d3937500571d280aea5fc9642bb1638",
	"128px/+Inf×50":  "a5282afe72e61cc03a01faccd053def9f549943f3c5bbb7e9cb9cf4c503fd901",
	"128px/+Inf×400": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
	"128px/-Inf×1":   "68609fa55b50fd9a87dc574f4b3556655d3937500571d280aea5fc9642bb1638",
	"128px/-Inf×50":  "a5282afe72e61cc03a01faccd053def9f549943f3c5bbb7e9cb9cf4c503fd901",
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
