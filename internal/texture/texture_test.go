package texture

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallParams() GenParams {
	p := DefaultGenParams()
	p.Size = 64
	p.Flakes = 40
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallParams()
	a := Generate(42, p)
	b := Generate(42, p)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatalf("pixel %d differs between identical seeds", i)
		}
	}
}

func TestGenerateDistinctSeeds(t *testing.T) {
	p := smallParams()
	a := Generate(1, p)
	b := Generate(2, p)
	var diff float64
	for i := range a.Pix {
		diff += math.Abs(float64(a.Pix[i] - b.Pix[i]))
	}
	diff /= float64(len(a.Pix))
	if diff < 0.05 {
		t.Fatalf("different seeds produce near-identical textures (mean abs diff %g)", diff)
	}
}

func TestGenerateRange(t *testing.T) {
	im := Generate(7, smallParams())
	lo, hi := float32(1), float32(0)
	for _, v := range im.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %g", v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// The logistic contrast curve should use most of the dynamic range.
	if lo > 0.2 || hi < 0.8 {
		t.Fatalf("texture has poor dynamic range: [%g,%g]", lo, hi)
	}
}

func TestGenerateHasTexture(t *testing.T) {
	// The texture must have substantial local gradient energy for SIFT to
	// find keypoints: check mean absolute horizontal gradient.
	im := Generate(11, smallParams())
	var g float64
	n := 0
	for y := 0; y < im.H; y++ {
		for x := 1; x < im.W; x++ {
			g += math.Abs(float64(im.At(x, y) - im.At(x-1, y)))
			n++
		}
	}
	if g/float64(n) < 0.01 {
		t.Fatalf("texture too flat: mean |∇x| = %g", g/float64(n))
	}
}

func TestAtClampsBorders(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(0, 0, 0.5)
	im.Set(3, 3, 0.75)
	if im.At(-2, -2) != 0.5 {
		t.Errorf("negative clamp failed")
	}
	if im.At(10, 10) != 0.75 {
		t.Errorf("positive clamp failed")
	}
}

func TestBilinear(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 0)
	im.Set(1, 0, 1)
	im.Set(0, 1, 0)
	im.Set(1, 1, 1)
	if got := im.Bilinear(0.5, 0.5); math.Abs(float64(got)-0.5) > 1e-6 {
		t.Errorf("Bilinear(0.5,0.5) = %g, want 0.5", got)
	}
	if got := im.Bilinear(0, 0); got != 0 {
		t.Errorf("Bilinear(0,0) = %g, want 0", got)
	}
}

func TestIdentityPerturbationIsNoOp(t *testing.T) {
	im := Generate(3, smallParams())
	out := Perturbation{Scale: 1, Gain: 1}.Apply(im)
	for i := range im.Pix {
		if math.Abs(float64(im.Pix[i]-out.Pix[i])) > 1e-5 {
			t.Fatalf("identity perturbation changed pixel %d: %g -> %g", i, im.Pix[i], out.Pix[i])
		}
	}
}

func TestPerturbationChangesImage(t *testing.T) {
	im := Generate(3, smallParams())
	rng := rand.New(rand.NewSource(9))
	p := RandomPerturbation(rng, 0.8)
	out := p.Apply(im)
	var diff float64
	for i := range im.Pix {
		diff += math.Abs(float64(im.Pix[i] - out.Pix[i]))
	}
	if diff/float64(len(im.Pix)) < 0.01 {
		t.Fatal("strong perturbation left image nearly unchanged")
	}
	// Output must stay in [0,1] (Clamp01).
	for _, v := range out.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("perturbed pixel out of range: %g", v)
		}
	}
}

func TestPerturbationDeterministic(t *testing.T) {
	im := Generate(5, smallParams())
	p := Perturbation{Rotate: 0.1, Scale: 1.05, Gain: 1.1, NoiseSigma: 0.02, NoiseSeed: 77}
	a := p.Apply(im)
	b := p.Apply(im)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("perturbation with fixed NoiseSeed is not deterministic")
		}
	}
}

func TestRandomPerturbationDifficultyScales(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var easyMag, hardMag float64
	for i := 0; i < 200; i++ {
		e := RandomPerturbation(rng, 0.1)
		h := RandomPerturbation(rng, 1.0)
		easyMag += math.Abs(e.Rotate) + math.Abs(e.Scale-1)
		hardMag += math.Abs(h.Rotate) + math.Abs(h.Scale-1)
	}
	if hardMag <= easyMag {
		t.Fatalf("difficulty does not scale perturbation: easy %g, hard %g", easyMag, hardMag)
	}
}

func TestBuildDataset(t *testing.T) {
	ds := BuildDataset(123, 4, 10, 0.3, smallParams())
	if len(ds.Refs) != 4 || len(ds.Queries) != 10 || len(ds.Truth) != 10 {
		t.Fatalf("dataset shape wrong: %d refs, %d queries", len(ds.Refs), len(ds.Queries))
	}
	for q, id := range ds.Truth {
		if id != q%4 {
			t.Errorf("truth[%d] = %d, want %d", q, id, q%4)
		}
	}
	// Determinism across builds.
	ds2 := BuildDataset(123, 4, 10, 0.3, smallParams())
	for i := range ds.Queries[3].Pix {
		if ds.Queries[3].Pix[i] != ds2.Queries[3].Pix[i] {
			t.Fatal("dataset build is not deterministic")
		}
	}
}

func TestPropertyPerturbOutputInRange(t *testing.T) {
	im := Generate(21, smallParams())
	f := func(seed int64, diff float64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RandomPerturbation(rng, math.Mod(math.Abs(diff), 1))
		out := p.Apply(im)
		for _, v := range out.Pix {
			if v < 0 || v > 1 || v != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGenerate256(b *testing.B) {
	p := DefaultGenParams()
	for i := 0; i < b.N; i++ {
		Generate(int64(i), p)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	im := Generate(31, smallParams())
	var buf bytes.Buffer
	if err := EncodePNG(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H {
		t.Fatalf("size changed: %dx%d", back.W, back.H)
	}
	// 8-bit quantization: error bounded by half a level.
	for i := range im.Pix {
		if math.Abs(float64(im.Pix[i]-back.Pix[i])) > 1.0/255 {
			t.Fatalf("pixel %d: %g -> %g", i, im.Pix[i], back.Pix[i])
		}
	}
}

func TestDecodePNGRejectsGarbage(t *testing.T) {
	if _, err := DecodePNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if len(a.Refs) != len(b.Refs) || len(a.Queries) != len(b.Queries) {
		t.Fatalf("shape mismatch: %d/%d refs, %d/%d queries",
			len(a.Refs), len(b.Refs), len(a.Queries), len(b.Queries))
	}
	for i := range a.Refs {
		for p := range a.Refs[i].Pix {
			if a.Refs[i].Pix[p] != b.Refs[i].Pix[p] {
				t.Fatalf("ref %d pixel %d differs", i, p)
			}
		}
	}
	for q := range a.Queries {
		if a.Truth[q] != b.Truth[q] {
			t.Fatalf("truth %d differs: %d vs %d", q, a.Truth[q], b.Truth[q])
		}
		for p := range a.Queries[q].Pix {
			if a.Queries[q].Pix[p] != b.Queries[q].Pix[p] {
				t.Fatalf("query %d pixel %d differs", q, p)
			}
		}
	}
}

func TestBuildDatasetSeedEntryPointStable(t *testing.T) {
	p := smallParams()
	a := BuildDataset(11, 2, 2, 0.4, p)
	b := BuildDataset(11, 2, 2, 0.4, p)
	datasetsEqual(t, a, b)
}
