package orb

import (
	"math/rand"
	"testing"

	"texid/internal/texture"
)

func testImage(seed int64) *texture.Image {
	p := texture.DefaultGenParams()
	p.Size = 128
	p.Flakes = 500
	return texture.Generate(seed, p)
}

func TestHamming(t *testing.T) {
	var a, b Code
	if Hamming(a, b) != 0 {
		t.Fatal("identical codes should be at distance 0")
	}
	b[0] = 0b1011
	if Hamming(a, b) != 3 {
		t.Fatalf("Hamming = %d, want 3", Hamming(a, b))
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	if Hamming(a, b) != 256 {
		t.Fatalf("all-ones distance = %d, want 256", Hamming(a, b))
	}
}

func TestFASTScoreOnCorner(t *testing.T) {
	// A bright square on dark background: its corners fire the FAST-9
	// segment test (>= 9 contiguous darker circle pixels), flat regions
	// and straight edges do not.
	im := texture.NewImage(64, 64)
	for y := 32; y < 64; y++ {
		for x := 32; x < 64; x++ {
			im.Set(x, y, 1)
		}
	}
	if s := fastScore(im, 48, 48); s != 0 {
		t.Fatalf("flat interior scored %g", s)
	}
	if s := fastScore(im, 48, 32); s != 0 {
		t.Fatalf("straight edge scored %g", s)
	}
	if s := fastScore(im, 32, 32); s == 0 {
		t.Fatal("square corner scored 0")
	}
}

func TestExtractFindsKeypoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFeatures = 0
	f := Extract(testImage(1), cfg)
	if f.Count() < 100 {
		t.Fatalf("only %d ORB keypoints on a textured image", f.Count())
	}
	if len(f.Codes) != len(f.Keypoints) {
		t.Fatal("codes and keypoints out of sync")
	}
}

func TestExtractDeterministic(t *testing.T) {
	a := Extract(testImage(2), DefaultConfig())
	b := Extract(testImage(2), DefaultConfig())
	if a.Count() != b.Count() {
		t.Fatalf("counts differ: %d vs %d", a.Count(), b.Count())
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatal("codes differ between identical runs")
		}
	}
}

func TestMaxFeaturesCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFeatures = 50
	f := Extract(testImage(4), cfg)
	if f.Count() != 50 {
		t.Fatalf("cap produced %d features", f.Count())
	}
}

func TestDiscriminability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFeatures = 300
	refA := Extract(testImage(10), cfg)
	refB := Extract(testImage(11), cfg)
	rng := rand.New(rand.NewSource(5))
	pert := texture.RandomPerturbation(rng, 0.2)
	query := Extract(pert.Apply(testImage(10)), cfg)

	same := Match2NN(refA, query)
	diff := Match2NN(refB, query)
	t.Logf("ORB matches: same %d, different %d", same, diff)
	if same < 8 {
		t.Fatalf("too few same-texture ORB matches: %d", same)
	}
	if same < 2*diff {
		t.Fatalf("insufficient margin: same %d vs diff %d", same, diff)
	}
}

func TestScoreRanksTrueReferenceFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFeatures = 300
	refs := make([]*Features, 4)
	for i := range refs {
		refs[i] = Extract(testImage(int64(20+i)), cfg)
	}
	rng := rand.New(rand.NewSource(6))
	pert := texture.RandomPerturbation(rng, 0.2)
	query := Extract(pert.Apply(testImage(22)), cfg)
	ranked := Score(refs, query)
	if ranked[0].RefID != 2 {
		t.Fatalf("top candidate %d, want 2 (scores %v)", ranked[0].RefID, ranked)
	}
}
