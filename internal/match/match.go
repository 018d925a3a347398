// Package match implements the post-2-NN stages of the image-matching
// pipeline (Fig. 2): the ratio test that keeps distinctive correspondences,
// edge-feature removal, optional geometric verification with a RANSAC
// similarity model, and the match-count decision rule that declares two
// texture images identical.
//
// The ratio-test threshold (Lowe's 0.75, Ratio) and the verifier's
// iteration count and seed are constants, as in the paper's one
// deployment: a fixed seed is what makes every geometric score
// reproducible. Config holds only what a caller varies.
package match

import (
	"math"
	"math/rand"
	"sort"

	"texid/internal/knn"
	"texid/internal/sift"
)

// Ratio is the Lowe ratio-test threshold: a query feature is a distinct
// match when best < Ratio·second.
const Ratio = 0.75

// The RANSAC verifier draws ransacIters hypotheses from a generator seeded
// afresh with ransacSeed, so a pair's geometric score is the same on every
// call.
const (
	ransacIters = 200
	ransacSeed  = 1
)

// Config controls the matching decision pipeline.
type Config struct {
	// EdgeMargin drops correspondences whose query keypoint lies within
	// this many pixels of the image border (the paper's "edge feature
	// removing" post-processing step).
	EdgeMargin float64
	// ImageSize is the query image side in pixels, used by EdgeMargin.
	ImageSize int
	// MinMatches is the decision threshold: two images contain the same
	// texture only when at least this many verified matches survive.
	MinMatches int
	// Geometric enables RANSAC verification of a similarity transform.
	Geometric bool
	// RANSACTol is the verifier's inlier distance in query pixels.
	RANSACTol float64
}

// DefaultConfig returns the thresholds used throughout the experiments.
func DefaultConfig() Config {
	return Config{
		EdgeMargin: 4,
		ImageSize:  256,
		MinMatches: 8,
		Geometric:  false,
		RANSACTol:  4,
	}
}

// Correspondence is one surviving query→reference feature match.
type Correspondence struct {
	QueryIdx int
	RefIdx   int
	Dist     float64
}

// ratioTest applies the 2-NN ratio test to one pair result, returning the
// distinctive correspondences. Non-finite distances (FP16 overflow) never
// pass.
func ratioTest(r knn.Pair2NN) []Correspondence {
	var out []Correspondence
	for j := range r.Best {
		b, s := float64(r.Best[j]), float64(r.Second[j])
		if math.IsInf(b, 0) || math.IsNaN(b) || math.IsInf(s, 0) {
			continue
		}
		if s <= 0 {
			continue
		}
		if b < Ratio*s {
			out = append(out, Correspondence{QueryIdx: j, RefIdx: int(r.BestIdx[j]), Dist: b})
		}
	}
	return out
}

// filterEdges drops correspondences whose query keypoint lies within
// margin pixels of the border.
func filterEdges(cs []Correspondence, queryKps []sift.Keypoint, size int, margin float64) []Correspondence {
	if margin <= 0 || queryKps == nil {
		return cs
	}
	out := cs[:0]
	for _, c := range cs {
		if c.QueryIdx >= len(queryKps) {
			continue
		}
		kp := queryKps[c.QueryIdx]
		if kp.X < margin || kp.Y < margin || kp.X > float64(size)-margin || kp.Y > float64(size)-margin {
			continue
		}
		out = append(out, c)
	}
	return out
}

// PairScore scores one reference against the query: the number of matches
// surviving the ratio test, edge filter, and (optionally) geometric
// verification. refKps/queryKps may be nil when geometric verification is
// disabled.
func PairScore(r knn.Pair2NN, refKps, queryKps []sift.Keypoint, cfg Config) int {
	cs := ratioTest(r)
	cs = filterEdges(cs, queryKps, cfg.ImageSize, cfg.EdgeMargin)
	if !cfg.Geometric || len(cs) < 3 || refKps == nil || queryKps == nil {
		return len(cs)
	}
	return verifySimilarity(cs, refKps, queryKps, cfg.RANSACTol)
}

// verifySimilarity runs RANSAC over a 4-DOF similarity transform
// (rotation, isotropic scale, translation) mapping reference keypoints to
// query keypoints, returning the inlier count of the best model within tol
// pixels.
func verifySimilarity(cs []Correspondence, refKps, queryKps []sift.Keypoint, tol float64) int {
	if len(cs) < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(ransacSeed))
	tol2 := tol * tol
	best := 0
	for iter := 0; iter < ransacIters; iter++ {
		i := rng.Intn(len(cs))
		j := rng.Intn(len(cs))
		if i == j {
			continue
		}
		a, b := cs[i], cs[j]
		if a.RefIdx >= len(refKps) || b.RefIdx >= len(refKps) ||
			a.QueryIdx >= len(queryKps) || b.QueryIdx >= len(queryKps) {
			continue
		}
		// Solve the similarity from the two pairs.
		rx1, ry1 := refKps[a.RefIdx].X, refKps[a.RefIdx].Y
		rx2, ry2 := refKps[b.RefIdx].X, refKps[b.RefIdx].Y
		qx1, qy1 := queryKps[a.QueryIdx].X, queryKps[a.QueryIdx].Y
		qx2, qy2 := queryKps[b.QueryIdx].X, queryKps[b.QueryIdx].Y
		drx, dry := rx2-rx1, ry2-ry1
		dqx, dqy := qx2-qx1, qy2-qy1
		den := drx*drx + dry*dry
		if den < 1e-9 {
			continue
		}
		// Complex division (dq / dr) gives scale·rotation as (p, q).
		p := (dqx*drx + dqy*dry) / den
		q := (dqy*drx - dqx*dry) / den
		tx := qx1 - (p*rx1 - q*ry1)
		ty := qy1 - (q*rx1 + p*ry1)

		inl := 0
		for _, c := range cs {
			if c.RefIdx >= len(refKps) || c.QueryIdx >= len(queryKps) {
				continue
			}
			rx, ry := refKps[c.RefIdx].X, refKps[c.RefIdx].Y
			px := p*rx - q*ry + tx
			py := q*rx + p*ry + ty
			dx := px - queryKps[c.QueryIdx].X
			dy := py - queryKps[c.QueryIdx].Y
			if dx*dx+dy*dy <= tol2 {
				inl++
			}
		}
		if inl > best {
			best = inl
		}
	}
	return best
}

// SearchResult is one candidate from a one-to-many search.
type SearchResult struct {
	RefID int
	Score int
}

// ranksBefore is the one order rule of a ranked list: higher score first,
// lower RefID among equals.
func ranksBefore(a, b SearchResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.RefID < b.RefID
}

// RankResults sorts candidates by descending score with deterministic
// RefID tie-breaking and returns them.
func RankResults(results []SearchResult) []SearchResult {
	sort.Slice(results, func(i, j int) bool { return ranksBefore(results[i], results[j]) })
	return results
}

// Identify returns the best candidate — the one RankResults would put
// first — and whether Verify accepts its score (the one-to-many search
// decision). It is one pass over results, which it leaves untouched.
func Identify(results []SearchResult, cfg Config) (SearchResult, bool) {
	if len(results) == 0 {
		return SearchResult{RefID: -1}, false
	}
	top := results[0]
	for _, r := range results[1:] {
		if ranksBefore(r, top) {
			top = r
		}
	}
	return top, Verify(top.Score, cfg)
}

// Verify answers the one-to-one verification task: do the two images
// contain the same texture? It is the MinMatches decision rule every
// search answer is accepted by.
func Verify(score int, cfg Config) bool { return score >= cfg.MinMatches }
