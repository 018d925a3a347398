package orb

import (
	"math/bits"

	"texid/internal/match"
)

// Hamming returns the Hamming distance between two codes (0..256).
func Hamming(a, b Code) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// ratio is the ratio-test threshold on Hamming distances, looser than
// SIFT's match.Ratio.
const ratio = 0.8

// Match2NN runs brute-force 2-NN Hamming matching with Lowe's ratio test
// and returns the number of distinctive correspondences — the binary
// analogue of the paper's SIFT matching step. Note the contrast that
// motivates the ablate-binary experiment: this computation has no GEMM
// formulation, so the cuBLAS/tensor-core machinery the paper builds cannot
// accelerate it (XOR+popcount is instead trivially memory-bound).
func Match2NN(ref, query *Features) int {
	matches := 0
	for q := range query.Codes {
		best, second := 257, 257
		for r := range ref.Codes {
			d := Hamming(query.Codes[q], ref.Codes[r])
			if d < best {
				second = best
				best = d
			} else if d < second {
				second = d
			}
		}
		if second > 0 && float64(best) < ratio*float64(second) {
			matches++
		}
	}
	return matches
}

// Score ranks references by distinctive-match count against one query,
// returning ranked results for the open-set top-1 decision.
func Score(refs []*Features, query *Features) []match.SearchResult {
	out := make([]match.SearchResult, 0, len(refs))
	for id, ref := range refs {
		out = append(out, match.SearchResult{RefID: id, Score: Match2NN(ref, query)})
	}
	return match.RankResults(out)
}

// BytesPerFeature is the storage cost of one binary descriptor.
const BytesPerFeature = CodeWords * 8
