// Package cbir implements the content-based image retrieval baseline the
// paper contrasts texture identification against (Sec. 2): instead of
// matching the query against every reference image separately (the paper's
// one-by-one 2-NN), CBIR engines pool the features of ALL reference images
// into a single index; each query feature votes for the reference image
// that owns its nearest pooled neighbor. Faiss-style engines additionally
// compress the pooled features with product quantization (PQ) to reach
// billion scale.
//
// The paper's argument — reproduced by the "cbir" experiment — is that the
// pooled/compressed computation pattern trades away exactly the
// fine-grained discrimination texture identification needs: under PQ
// compression the vote histogram flattens and top-1 accuracy drops, while
// the paper's per-image matching keeps full feature fidelity at FP16 cost.
package cbir

import (
	"fmt"
	"math"

	"texid/internal/blas"
	"texid/internal/match"
)

// Index is an exact pooled-feature index (the uncompressed CBIR baseline).
type Index struct {
	dim   int
	pool  []float32 // column-major pooled descriptors
	owner []int32   // pooled column -> reference id
}

// NewIndex creates an empty pooled index for descriptors of the given
// dimension.
func NewIndex(dim int) *Index {
	if dim <= 0 {
		panic(fmt.Sprintf("cbir: invalid dimension %d", dim))
	}
	return &Index{dim: dim}
}

// Add pools the feature matrix (dim×k) of one reference image.
func (ix *Index) Add(id int, feats *blas.Matrix) error {
	if feats.Rows != ix.dim {
		return fmt.Errorf("cbir: features are %d-dimensional, index wants %d", feats.Rows, ix.dim)
	}
	for j := 0; j < feats.Cols; j++ {
		ix.pool = append(ix.pool, feats.Col(j)...)
		ix.owner = append(ix.owner, int32(id))
	}
	return nil
}

// Search runs the CBIR retrieval: every query feature finds its nearest and
// second-nearest pooled neighbors (a single global 2-NN — this is the
// "only single nearest neighbor across all the features" pattern of
// Sec. 2); features passing the ratio test (match.Ratio) vote for the
// owning reference. Results are vote counts per reference, ranked.
func (ix *Index) Search(query *blas.Matrix) []match.SearchResult {
	votes := map[int]int{}
	for j := 0; j < query.Cols; j++ {
		q := query.Col(j)
		best, second := float32(math.MaxFloat32), float32(math.MaxFloat32)
		bestOwner := int32(-1)
		for c := 0; c < len(ix.owner); c++ {
			cand := ix.pool[c*ix.dim : c*ix.dim+ix.dim]
			var d float32
			for i, v := range q {
				diff := v - cand[i]
				d += diff * diff
			}
			if d < best {
				// Lowe's ratio in the pooled setting compares against the
				// nearest neighbor from a *different* image, so repeated
				// structure within the true image does not suppress votes.
				if ix.owner[c] != bestOwner {
					second = best
				}
				best = d
				bestOwner = ix.owner[c]
			} else if d < second && ix.owner[c] != bestOwner {
				second = d
			}
		}
		if bestOwner >= 0 && float64(math.Sqrt(float64(best))) < match.Ratio*float64(math.Sqrt(float64(second))) {
			votes[int(bestOwner)]++
		}
	}
	out := make([]match.SearchResult, 0, len(votes))
	for id, v := range votes {
		out = append(out, match.SearchResult{RefID: id, Score: v})
	}
	return match.RankResults(out)
}
