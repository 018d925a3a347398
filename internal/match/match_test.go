package match

import (
	"math"
	"math/rand"
	"testing"

	"texid/internal/knn"
	"texid/internal/sift"
)

func pair(best, second []float32) knn.Pair2NN {
	idx := make([]int32, len(best))
	for i := range idx {
		idx[i] = int32(i)
	}
	return knn.Pair2NN{Best: best, Second: second, BestIdx: idx}
}

func TestRatioTest(t *testing.T) {
	r := pair(
		[]float32{1.0, 1.0, 0.5, float32(math.Inf(1))},
		[]float32{2.0, 1.1, 2.0, 3.0},
	)
	cs := ratioTest(r)
	if len(cs) != 2 {
		t.Fatalf("got %d correspondences, want 2 (idx 0 and 2)", len(cs))
	}
	if cs[0].QueryIdx != 0 || cs[1].QueryIdx != 2 {
		t.Fatalf("wrong survivors: %+v", cs)
	}
}

func TestRatioTestRejectsOverflow(t *testing.T) {
	inf := float32(math.Inf(1))
	r := pair([]float32{inf, 0.1}, []float32{inf, inf})
	if cs := ratioTest(r); len(cs) != 0 {
		t.Fatalf("overflowed distances must never match, got %+v", cs)
	}
}

func TestRatioTestThresholdBoundary(t *testing.T) {
	r := pair([]float32{0.75}, []float32{1.0})
	if len(ratioTest(r)) != 0 {
		t.Fatal("best == ratio*second must be rejected (strict <)")
	}
	r = pair([]float32{0.7499}, []float32{1.0})
	if len(ratioTest(r)) != 1 {
		t.Fatal("best just under threshold must pass")
	}
}

func TestVerifySimilarityRecoversTransform(t *testing.T) {
	// Reference keypoints mapped by a known similarity + outliers: RANSAC
	// should count exactly the inliers.
	rng := rand.New(rand.NewSource(42))
	theta, scale := 0.3, 1.2
	tx, ty := 10.0, -5.0
	cosT, sinT := math.Cos(theta)*scale, math.Sin(theta)*scale

	var refKps, queryKps []sift.Keypoint
	var cs []Correspondence
	for i := 0; i < 30; i++ {
		x := rng.Float64() * 200
		y := rng.Float64() * 200
		refKps = append(refKps, sift.Keypoint{X: x, Y: y})
		if i < 20 { // inlier
			queryKps = append(queryKps, sift.Keypoint{
				X: cosT*x - sinT*y + tx,
				Y: sinT*x + cosT*y + ty,
			})
		} else { // outlier
			queryKps = append(queryKps, sift.Keypoint{X: rng.Float64() * 200, Y: rng.Float64() * 200})
		}
		cs = append(cs, Correspondence{QueryIdx: i, RefIdx: i})
	}
	inl := verifySimilarity(cs, refKps, queryKps, DefaultConfig().RANSACTol)
	if inl < 19 || inl > 22 {
		t.Fatalf("RANSAC found %d inliers, want ~20", inl)
	}
}

func TestVerifySimilarityTooFew(t *testing.T) {
	if got := verifySimilarity([]Correspondence{{QueryIdx: 0, RefIdx: 0}}, nil, nil, DefaultConfig().RANSACTol); got != 0 {
		t.Fatalf("single correspondence should verify to 0, got %d", got)
	}
}

func TestPairScoreWithoutGeometry(t *testing.T) {
	r := pair([]float32{0.1, 0.1, 0.9}, []float32{1, 1, 1})
	if got := PairScore(r, nil, nil, DefaultConfig()); got != 2 {
		t.Fatalf("score = %d, want 2", got)
	}
}

// TestPairScoreKeypointless: with Geometric set, a side without keypoints,
// nil or empty, scores by the ratio test alone, and a query's keypoints
// never drop a correspondence without the verifier (edge removal belongs
// to the extractor).
func TestPairScoreKeypointless(t *testing.T) {
	r := pair([]float32{0.1, 0.1, 0.1, 0.9}, []float32{1, 1, 1, 1})
	kps := []sift.Keypoint{{X: 0, Y: 0}, {X: 1, Y: 300}, {X: 500, Y: 2}, {X: 9, Y: 9}}
	geo := DefaultConfig()
	geo.Geometric = true
	for _, tc := range []struct {
		name           string
		refKps, qryKps []sift.Keypoint
		cfg            Config
	}{
		{"nil query", kps, nil, geo},
		{"empty query", kps, []sift.Keypoint{}, geo},
		{"nil reference", nil, kps, geo},
		{"empty reference", []sift.Keypoint{}, kps, geo},
		{"border keypoints without Geometric", kps, kps, DefaultConfig()},
	} {
		if got := PairScore(r, tc.refKps, tc.qryKps, tc.cfg); got != 3 {
			t.Errorf("%s: score = %d, want the ratio test's 3", tc.name, got)
		}
	}
}

func TestIdentify(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinMatches = 10
	results := []SearchResult{{RefID: 3, Score: 5}, {RefID: 7, Score: 50}, {RefID: 1, Score: 12}}
	top, ok := Identify(results, cfg)
	if !ok || top.RefID != 7 || top.Score != 50 {
		t.Fatalf("Identify = %+v, %v", top, ok)
	}
	// Below threshold: candidate returned but not accepted.
	weak := []SearchResult{{RefID: 2, Score: 4}}
	top, ok = Identify(weak, cfg)
	if ok || top.RefID != 2 {
		t.Fatalf("weak Identify = %+v, %v", top, ok)
	}
	// Empty input.
	if _, ok := Identify(nil, cfg); ok {
		t.Fatal("empty results must not identify")
	}
}

// TestIdentifyIsTopOfRanking holds Identify to its definition: the first
// element of a ranked copy, with the caller's slice left in place.
func TestIdentifyIsTopOfRanking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinMatches = 3
	for _, results := range [][]SearchResult{
		nil,
		{},
		{{RefID: 4, Score: 3}},
		{{RefID: 9, Score: 5}, {RefID: 2, Score: 5}, {RefID: 5, Score: 5}},   // all tied
		{{RefID: 1, Score: 2}, {RefID: 8, Score: 7}, {RefID: 3, Score: 7}},   // tie for the top, lower id later
		{{RefID: 3, Score: 7}, {RefID: 8, Score: 7}, {RefID: 1, Score: 9}},   // best last
		{{RefID: -1, Score: 0}, {RefID: 6, Score: -4}, {RefID: 2, Score: 0}}, // negatives, phantom id
		{{RefID: 7, Score: -2}, {RefID: 7, Score: -2}},                       // duplicates
	} {
		before := append([]SearchResult(nil), results...)
		got, ok := Identify(results, cfg)
		want, wantOK := SearchResult{RefID: -1}, false
		if len(results) > 0 {
			want = RankResults(append([]SearchResult(nil), results...))[0]
			wantOK = want.Score >= cfg.MinMatches
		}
		if got != want || ok != wantOK {
			t.Errorf("Identify(%v) = %+v, %v; ranked copy says %+v, %v", before, got, ok, want, wantOK)
		}
		for i := range results {
			if results[i] != before[i] {
				t.Fatalf("Identify reordered its input: %v -> %v", before, results)
			}
		}
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	r := RankResults([]SearchResult{{RefID: 9, Score: 5}, {RefID: 2, Score: 5}, {RefID: 5, Score: 5}})
	if r[0].RefID != 2 || r[1].RefID != 5 || r[2].RefID != 9 {
		t.Fatalf("tie-break not by RefID: %+v", r)
	}
}

func TestVerifyDecision(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinMatches = 8
	if Verify(7, cfg) || !Verify(8, cfg) {
		t.Fatal("verification threshold wrong")
	}
}
