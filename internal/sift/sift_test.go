package sift

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"texid/internal/blas"
	"texid/internal/texture"
)

func testImage(seed int64) *texture.Image {
	p := texture.DefaultGenParams()
	p.Size = 128
	p.Flakes = 80
	return texture.Generate(seed, p)
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxFeatures = 256
	return cfg
}

func TestExtractFindsKeypoints(t *testing.T) {
	f := Extract(testImage(1), testConfig())
	if f.Count() < 100 {
		t.Fatalf("only %d keypoints on a 128px texture; want >= 100", f.Count())
	}
	if f.Descriptors.Rows != DescriptorDim || f.Descriptors.Cols != f.Count() {
		t.Fatalf("descriptor matrix %dx%d for %d keypoints", f.Descriptors.Rows, f.Descriptors.Cols, f.Count())
	}
	for _, kp := range f.Keypoints {
		if kp.X < 0 || kp.X >= 128 || kp.Y < 0 || kp.Y >= 128 {
			t.Fatalf("keypoint outside image: (%g, %g)", kp.X, kp.Y)
		}
		if kp.Sigma <= 0 {
			t.Fatalf("non-positive keypoint scale %g", kp.Sigma)
		}
		if kp.Angle < 0 || kp.Angle >= 2*math.Pi+1e-9 {
			t.Fatalf("angle out of range: %g", kp.Angle)
		}
	}
}

func TestExtractDeterministic(t *testing.T) {
	a := Extract(testImage(2), testConfig())
	b := Extract(testImage(2), testConfig())
	if a.Count() != b.Count() {
		t.Fatalf("count differs: %d vs %d", a.Count(), b.Count())
	}
	for i := range a.Descriptors.Data {
		if a.Descriptors.Data[i] != b.Descriptors.Data[i] {
			t.Fatal("descriptors differ between identical runs")
		}
	}
}

func TestDescriptorNorm512(t *testing.T) {
	f := Extract(testImage(3), testConfig())
	for j := 0; j < f.Descriptors.Cols; j++ {
		col := f.Descriptors.Col(j)
		var n float64
		for _, v := range col {
			if v < 0 {
				t.Fatalf("negative descriptor entry %g", v)
			}
			n += float64(v) * float64(v)
		}
		n = math.Sqrt(n)
		if math.Abs(n-512) > 1 {
			t.Fatalf("descriptor %d has L2 norm %g, want 512", j, n)
		}
	}
}

func TestRootSIFTUnitNorm(t *testing.T) {
	cfg := testConfig()
	cfg.RootSIFT = true
	f := Extract(testImage(4), cfg)
	for j := 0; j < f.Descriptors.Cols; j++ {
		col := f.Descriptors.Col(j)
		var n float64
		for _, v := range col {
			if v < 0 {
				t.Fatalf("RootSIFT entry negative: %g", v)
			}
			n += float64(v) * float64(v)
		}
		if math.Abs(n-1) > 1e-3 {
			t.Fatalf("RootSIFT descriptor %d has squared norm %g, want 1", j, n)
		}
	}
}

func TestRootSIFTIsHellinger(t *testing.T) {
	// For L1-normalized histograms x, y: ‖√x − √y‖² = 2 − 2·Σ√(x_i·y_i),
	// so the RootSIFT dot product equals the Hellinger kernel.
	x := []float32{4, 0, 1, 3}
	y := []float32{1, 1, 1, 1}
	m := blas.FromColumns(4, [][]float32{x, y})
	ApplyRootSIFT(m)
	var dot float64
	for i := 0; i < 4; i++ {
		dot += float64(m.At(i, 0)) * float64(m.At(i, 1))
	}
	// Hellinger kernel of the L1-normalized originals.
	var want float64
	for i := 0; i < 4; i++ {
		want += math.Sqrt(float64(x[i]) / 8 * float64(y[i]) / 4)
	}
	if math.Abs(dot-want) > 1e-6 {
		t.Fatalf("RootSIFT dot = %g, Hellinger = %g", dot, want)
	}
}

func TestTopKByResponse(t *testing.T) {
	kps := []Keypoint{
		{X: 1, Response: 0.5},
		{X: 2, Response: 0.9},
		{X: 3, Response: 0.1},
		{X: 4, Response: 0.7},
	}
	got := topKByResponse(kps, 2)
	if len(got) != 2 || got[0].X != 2 || got[1].X != 4 {
		t.Fatalf("topK wrong: %+v", got)
	}
	if len(topKByResponse(kps, 0)) != 4 {
		t.Fatal("k=0 should keep all")
	}
	if len(topKByResponse(kps, 100)) != 4 {
		t.Fatal("k>len should keep all")
	}
}

// TestTopKByResponseIgnoresInputOrder: the sort is a total order, so any
// permutation of one extraction's oriented keypoints, orientation copies
// that tie on response and position included, cuts to the same output.
func TestTopKByResponseIgnoresInputOrder(t *testing.T) {
	im := testImage(3)
	var a arena
	p := buildPyramidArena(&a, im)
	oriented := slices.Clone(assignOrientations(p, &a, dropBorder(detectExtrema(p, &a), im.W, im.H)))
	// Keypoints that tie on every key but one, each key in turn.
	base := Keypoint{X: 40, Y: 50, Sigma: 2, Angle: 1, Response: 0.5, Octave: 1, Level: 2}
	for _, bump := range []func(*Keypoint){
		func(k *Keypoint) { k.Y++ }, func(k *Keypoint) { k.X++ }, func(k *Keypoint) { k.Octave++ },
		func(k *Keypoint) { k.Level++ }, func(k *Keypoint) { k.Sigma++ }, func(k *Keypoint) { k.Angle++ },
	} {
		k := base
		bump(&k)
		oriented = append(oriented, base, k)
	}
	copies := 0
	for i := 1; i < len(oriented); i++ {
		if a, b := oriented[i-1], oriented[i]; a.Response == b.Response && a.X == b.X && a.Y == b.Y && a.Angle != b.Angle {
			copies++
		}
	}
	if copies < 10 {
		t.Fatalf("only %d adjacent orientation copies among %d keypoints; the test needs ties", copies, len(oriented))
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 100, len(oriented) / 2} {
		want := topKByResponse(slices.Clone(oriented), k)
		for trial := range 8 {
			in := slices.Clone(oriented)
			if trial == 0 {
				slices.Reverse(in)
			} else {
				rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			}
			if got := topKByResponse(in, k); !slices.Equal(got, want) {
				t.Fatalf("k=%d, permutation %d: the output differs from the unpermuted input's", k, trial)
			}
		}
	}
}

// TestExtractDropsOwnBorder: every kept keypoint lies at least borderMargin
// original pixels inside its own image, whatever the image's size and
// aspect, and the kept set still reaches that margin on all four sides:
// past side − 16 on the right and bottom, not cut to any fixed square.
// Detection alone does find keypoints inside the margin, so the drop is
// what keeps them out.
func TestExtractDropsOwnBorder(t *testing.T) {
	crop := func(im *texture.Image, w, h int) *texture.Image {
		out := texture.NewImage(w, h)
		for y := range h {
			copy(out.Pix[y*w:(y+1)*w], im.Pix[y*im.W:y*im.W+w])
		}
		return out
	}
	type image struct {
		name string
		im   *texture.Image
	}
	var ims []image
	for _, size := range []int{128, 256, 512, 1024} {
		p := texture.DefaultGenParams()
		p.Size = size
		ims = append(ims, image{fmt.Sprintf("%dpx", size), texture.Generate(int64(size)+11, p)})
	}
	ims = append(ims, image{"512x256", crop(ims[2].im, 512, 256)})
	cfg := DefaultConfig()
	cfg.MaxFeatures = 0
	for _, c := range ims {
		name, w, h := c.name, float64(c.im.W), float64(c.im.H)
		inBand := func(k Keypoint) bool {
			return k.X < borderMargin || k.Y < borderMargin || k.X > w-borderMargin || k.Y > h-borderMargin
		}
		var a arena
		if !slices.ContainsFunc(detectExtrema(buildPyramidArena(&a, c.im), &a), inBand) {
			t.Errorf("%s: detection found no keypoint inside the margin; the test cannot see the drop", name)
		}
		f := Extract(c.im, cfg)
		minX, minY, maxX, maxY := w, h, 0.0, 0.0
		for _, k := range f.Keypoints {
			if inBand(k) {
				t.Fatalf("%s: kept keypoint (%g, %g) lies within %g px of the border", name, k.X, k.Y, borderMargin)
			}
			minX, minY = min(minX, k.X), min(minY, k.Y)
			maxX, maxY = max(maxX, k.X), max(maxY, k.Y)
		}
		if minX > 16 || minY > 16 || maxX < w-16 || maxY < h-16 {
			t.Errorf("%s: kept keypoints span x [%g, %g], y [%g, %g]; want each within 16 px of the %gx%g border", name, minX, maxX, minY, maxY, w, h)
		}
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxFeatures = 50
	f := Extract(testImage(5), cfg)
	if f.Count() != 50 {
		t.Fatalf("MaxFeatures=50 produced %d features", f.Count())
	}
}

// matchCount runs a brute-force 2-NN ratio test between two feature sets
// and returns the number of accepted matches.
func matchCount(ref, query *Features, ratio float64) int {
	n := 0
	for q := 0; q < query.Count(); q++ {
		qc := query.Descriptors.Col(q)
		best, second := math.MaxFloat64, math.MaxFloat64
		for r := 0; r < ref.Count(); r++ {
			rc := ref.Descriptors.Col(r)
			var d float64
			for i := range qc {
				diff := float64(qc[i] - rc[i])
				d += diff * diff
			}
			if d < best {
				second = best
				best = d
			} else if d < second {
				second = d
			}
		}
		if second > 0 && math.Sqrt(best) < ratio*math.Sqrt(second) {
			n++
		}
	}
	return n
}

func TestDiscriminability(t *testing.T) {
	// The core identification property: a perturbed re-capture of texture A
	// must match reference A far better than reference B matches A.
	cfg := testConfig()
	refA := Extract(testImage(10), cfg)
	refB := Extract(testImage(11), cfg)

	rng := rand.New(rand.NewSource(1))
	pert := texture.RandomPerturbation(rng, 0.3)
	queryA := Extract(pert.Apply(testImage(10)), cfg)

	same := matchCount(refA, queryA, 0.75)
	diff := matchCount(refB, queryA, 0.75)
	t.Logf("matches: same-texture %d, different-texture %d", same, diff)
	if same < 20 {
		t.Fatalf("too few same-texture matches: %d", same)
	}
	if same < 3*diff {
		t.Fatalf("insufficient margin: same %d vs diff %d", same, diff)
	}
}

func TestExtractAsymmetric(t *testing.T) {
	refCfg, qCfg := ExtractAsymmetric(testConfig(), 100, 200)
	if refCfg.MaxFeatures != 100 || qCfg.MaxFeatures != 200 {
		t.Fatalf("asymmetric budgets wrong: %d/%d", refCfg.MaxFeatures, qCfg.MaxFeatures)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1.6, 3.2} {
		k := gaussianKernel(sigma)
		var sum float64
		for _, v := range k {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("kernel sigma=%g sums to %g", sigma, sum)
		}
		if len(k)%2 != 1 {
			t.Errorf("kernel sigma=%g has even length %d", sigma, len(k))
		}
	}
}

func TestBlurReducesVariance(t *testing.T) {
	im := testImage(6)
	blurred := blur(im, 2.0)
	varOf := func(im *texture.Image) float64 {
		var mean, s float64
		for _, v := range im.Pix {
			mean += float64(v)
		}
		mean /= float64(len(im.Pix))
		for _, v := range im.Pix {
			d := float64(v) - mean
			s += d * d
		}
		return s / float64(len(im.Pix))
	}
	if varOf(blurred) >= varOf(im) {
		t.Fatal("Gaussian blur did not reduce variance")
	}
}

func TestDownsampleHalves(t *testing.T) {
	im := texture.NewImage(8, 6)
	out := downsampleArena(nil, im)
	if out.W != 4 || out.H != 3 {
		t.Fatalf("downsample 8x6 -> %dx%d", out.W, out.H)
	}
}

func TestPyramidShape(t *testing.T) {
	p := buildPyramidArena(nil, testImage(7))
	if p.nOctaves < 3 {
		t.Fatalf("only %d octaves for a 128px image", p.nOctaves)
	}
	for o := 0; o < p.nOctaves; o++ {
		if len(p.gauss[o]) != octaveScales+3 {
			t.Fatalf("octave %d has %d gaussian levels", o, len(p.gauss[o]))
		}
		if len(p.dog[o]) != octaveScales+2 {
			t.Fatalf("octave %d has %d DoG levels", o, len(p.dog[o]))
		}
	}
	// Octave o+1 is half the size of octave o.
	if p.gauss[1][0].W != p.gauss[0][0].W/2 {
		t.Fatalf("octave downsampling broken: %d vs %d", p.gauss[1][0].W, p.gauss[0][0].W)
	}
}

func BenchmarkExtract128(b *testing.B) {
	im := testImage(100)
	cfg := testConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(im, cfg)
	}
}

// rotate90 rotates an image 90 degrees clockwise (exact, no resampling).
func rotate90(im *texture.Image) *texture.Image {
	out := texture.NewImage(im.H, im.W)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			out.Set(im.H-1-y, x, im.At(x, y))
		}
	}
	return out
}

func TestRotationInvariance(t *testing.T) {
	// A 90-degree rotation is lossless, so SIFT's orientation normalization
	// should keep most descriptors matching their rotated counterparts.
	cfg := testConfig()
	cfg.MaxFeatures = 150
	im := testImage(30)
	orig := Extract(im, cfg)
	rot := Extract(rotate90(im), cfg)
	matches := matchCount(orig, rot, 0.75)
	t.Logf("rotation-invariance matches: %d of %d query features", matches, rot.Count())
	if matches < orig.Count()/3 {
		t.Fatalf("only %d/%d descriptors survive a lossless 90-degree rotation", matches, orig.Count())
	}
}

func TestScaleInvariancePartial(t *testing.T) {
	// Downscaling by 2x shifts keypoints one octave; a healthy fraction of
	// descriptors should still match across the scale change.
	cfg := testConfig()
	cfg.MaxFeatures = 150
	im := testImage(31)
	small := texture.NewImage(im.W/2, im.H/2)
	for y := 0; y < small.H; y++ {
		for x := 0; x < small.W; x++ {
			small.Set(x, y, (im.At(2*x, 2*y)+im.At(2*x+1, 2*y)+im.At(2*x, 2*y+1)+im.At(2*x+1, 2*y+1))/4)
		}
	}
	orig := Extract(im, cfg)
	scaled := Extract(small, cfg)
	matches := matchCount(orig, scaled, 0.75)
	t.Logf("scale-invariance matches: %d of %d query features", matches, scaled.Count())
	if matches < 15 {
		t.Fatalf("only %d descriptors survive a 2x downscale", matches)
	}
}

func TestCostEstimator(t *testing.T) {
	est := EstimateCost(1024, 768)
	if est.PyramidFLOPs <= 0 || est.DescriptorFLOPs <= 0 || est.Total() <= est.PyramidFLOPs {
		t.Fatalf("degenerate cost estimate: %+v", est)
	}
	// Extraction of a 1024px capture is on the order of GFLOPs — far more
	// than one 2-NN match (151 MFLOPs), far less than a million of them.
	if est.Total() < 5e8 || est.Total() > 1e11 {
		t.Fatalf("extraction estimate %.2e FLOPs out of plausible range", est.Total())
	}
	if Match2NNFLOPs(1, 768, 768, 128) != 2*768*768*128 {
		t.Fatal("Match2NNFLOPs wrong")
	}
}
