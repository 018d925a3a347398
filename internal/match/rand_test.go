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

// TestVerifySimilarityRandReproducible: the verifier seeds its own
// generator with ransacSeed, so two calls draw the same hypotheses.
func TestVerifySimilarityRandReproducible(t *testing.T) {
	cs, refKps, queryKps := transformScene(12)
	tol := DefaultConfig().RANSACTol
	a := verifySimilarity(cs, refKps, queryKps, tol)
	if b := verifySimilarity(cs, refKps, queryKps, tol); a != b {
		t.Fatalf("two calls disagree: %d vs %d", a, b)
	}
	if a < 17 {
		t.Fatalf("RANSAC found %d inliers, want ~18", a)
	}
}

// TestPairScoreGeometricSeeded: a pair that reaches the RANSAC stage
// scores the same on every call, and the score is the verifier's count on
// the ratio-test survivors.
func TestPairScoreGeometricSeeded(t *testing.T) {
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
	a := PairScore(r, refKps, queryKps, cfg)
	if b := PairScore(r, refKps, queryKps, cfg); a != b {
		t.Fatalf("two scores of one pair disagree: %d vs %d", a, b)
	}
	if want := verifySimilarity(cs, refKps, queryKps, cfg.RANSACTol); a != want {
		t.Fatalf("PairScore = %d, want the verifier's %d", a, want)
	}
	if a < 17 {
		t.Fatalf("RANSAC found %d inliers, want ~18", a)
	}
}
