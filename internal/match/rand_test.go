package match

import (
	"math"
	"math/rand"
	"testing"

	"texid/internal/sift"
)

// transformScene builds keypoints related by a known similarity plus
// outliers, for exercising the RANSAC verifier.
func transformScene(seed int64) ([]Correspondence, []sift.Keypoint, []sift.Keypoint) {
	rng := rand.New(rand.NewSource(seed))
	cosT, sinT := math.Cos(0.2)*1.1, math.Sin(0.2)*1.1
	var refKps, queryKps []sift.Keypoint
	var cs []Correspondence
	for i := 0; i < 25; i++ {
		x, y := rng.Float64()*200, rng.Float64()*200
		refKps = append(refKps, sift.Keypoint{X: x, Y: y})
		if i < 18 {
			queryKps = append(queryKps, sift.Keypoint{X: cosT*x - sinT*y + 3, Y: sinT*x + cosT*y - 7})
		} else {
			queryKps = append(queryKps, sift.Keypoint{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		}
		cs = append(cs, Correspondence{QueryIdx: i, RefIdx: i})
	}
	return cs, refKps, queryKps
}

func TestVerifySimilarityRandReproducible(t *testing.T) {
	cs, refKps, queryKps := transformScene(12)
	cfg := DefaultConfig()
	cfg.Geometric = true
	a := VerifySimilarityRand(cs, refKps, queryKps, cfg, rand.New(rand.NewSource(2)))
	b := VerifySimilarityRand(cs, refKps, queryKps, cfg, rand.New(rand.NewSource(2)))
	if a != b {
		t.Fatalf("identically seeded generators disagree: %d vs %d", a, b)
	}
	if a < 17 {
		t.Fatalf("RANSAC found %d inliers, want ~18", a)
	}
}

func TestPairScoreRandThreadsGenerator(t *testing.T) {
	cs, refKps, queryKps := transformScene(14)
	cfg := DefaultConfig()
	cfg.Geometric = true
	cfg.EdgeMargin = 0
	// Build a Pair2NN whose ratio test keeps every correspondence so the
	// geometric stage runs.
	best := make([]float32, len(cs))
	second := make([]float32, len(cs))
	for i := range cs {
		best[i] = 0.2
		second[i] = 1
	}
	r := pair(best, second)
	a := PairScoreRand(r, refKps, queryKps, cfg, rand.New(rand.NewSource(3)))
	b := PairScoreRand(r, refKps, queryKps, cfg, rand.New(rand.NewSource(3)))
	if a != b {
		t.Fatalf("identically seeded generators disagree: %d vs %d", a, b)
	}
	if c := PairScoreRand(r, refKps, queryKps, cfg, nil); c != PairScore(r, refKps, queryKps, cfg) {
		t.Fatal("nil rng must fall back to the cfg.Seed path")
	}
}
