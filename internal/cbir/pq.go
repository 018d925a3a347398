package cbir

import (
	"fmt"
	"math"
	"math/rand"

	"texid/internal/blas"
	"texid/internal/match"
)

// PQSubspaces (M) splits the descriptor into M contiguous sub-vectors,
// each quantized independently; the code is M bytes, the common
// 8-byte-per-descriptor configuration.
const PQSubspaces = 8

const (
	// kmeansIters bounds the Lloyd iterations during training.
	kmeansIters = 12
	// pqSeed makes training deterministic.
	pqSeed = 1
)

// PQConfig configures a product quantizer (Jégou et al., the compression
// behind Faiss's billion-scale indexes).
type PQConfig struct {
	// Centroids (K) per subspace codebook; 256 keeps one byte per code.
	Centroids int
}

// DefaultPQConfig returns the one-byte-per-subspace configuration.
func DefaultPQConfig() PQConfig {
	return PQConfig{Centroids: 256}
}

// PQIndex is a pooled index with product-quantized descriptors.
type PQIndex struct {
	cfg    PQConfig
	dim    int
	subDim int
	// codebooks[s] is Centroids×subDim, row-major per centroid.
	codebooks [][]float32
	codes     []uint8 // len = PQSubspaces per pooled feature
	owner     []int32
}

// TrainPQ learns codebooks from a training sample (dim×n matrix of
// descriptors) with per-subspace k-means, seeded from pqSeed.
func TrainPQ(train *blas.Matrix, cfg PQConfig) (*PQIndex, error) {
	return TrainPQRand(train, cfg, rand.New(rand.NewSource(pqSeed)))
}

// TrainPQRand is TrainPQ with an explicit generator: k-means seeding and
// empty-centroid re-seeding draw from rng, so identically seeded
// generators reproduce the same codebooks bit for bit.
func TrainPQRand(train *blas.Matrix, cfg PQConfig, rng *rand.Rand) (*PQIndex, error) {
	if cfg.Centroids <= 1 || cfg.Centroids > 256 {
		return nil, fmt.Errorf("cbir: invalid PQ config %+v", cfg)
	}
	if train.Rows%PQSubspaces != 0 {
		return nil, fmt.Errorf("cbir: dimension %d not divisible by %d subspaces", train.Rows, PQSubspaces)
	}
	if train.Cols < cfg.Centroids {
		return nil, fmt.Errorf("cbir: %d training vectors for %d centroids", train.Cols, cfg.Centroids)
	}
	ix := &PQIndex{cfg: cfg, dim: train.Rows, subDim: train.Rows / PQSubspaces}
	for s := 0; s < PQSubspaces; s++ {
		ix.codebooks = append(ix.codebooks, kmeans(train, s*ix.subDim, ix.subDim, cfg.Centroids, rng))
	}
	return ix, nil
}

// kmeans runs Lloyd's algorithm on the sub-vectors train[offset:offset+subDim, :].
func kmeans(train *blas.Matrix, offset, subDim, k int, rng *rand.Rand) []float32 {
	n := train.Cols
	cent := make([]float32, k*subDim)
	// k-means++ style seeding simplified: random distinct columns.
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		col := train.Col(perm[c%n])
		copy(cent[c*subDim:(c+1)*subDim], col[offset:offset+subDim])
	}
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*subDim)
	for it := 0; it < kmeansIters; it++ {
		changed := 0
		for j := 0; j < n; j++ {
			v := train.Col(j)[offset : offset+subDim]
			best, bestD := 0, float32(math.MaxFloat32)
			for c := 0; c < k; c++ {
				cv := cent[c*subDim : (c+1)*subDim]
				var d float32
				for i := range v {
					diff := v[i] - cv[i]
					d += diff * diff
				}
				if d < bestD {
					bestD = d
					best = c
				}
			}
			if assign[j] != best {
				changed++
				assign[j] = best
			}
		}
		for i := range sums {
			sums[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for j := 0; j < n; j++ {
			c := assign[j]
			counts[c]++
			v := train.Col(j)[offset : offset+subDim]
			for i := range v {
				sums[c*subDim+i] += float64(v[i])
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty centroid from a random vector.
				col := train.Col(rng.Intn(n))
				copy(cent[c*subDim:(c+1)*subDim], col[offset:offset+subDim])
				continue
			}
			for i := 0; i < subDim; i++ {
				cent[c*subDim+i] = float32(sums[c*subDim+i] / float64(counts[c]))
			}
		}
		if changed == 0 {
			break
		}
	}
	return cent
}

// encode quantizes one descriptor to its M-byte code.
func (ix *PQIndex) encode(v []float32) []uint8 {
	code := make([]uint8, PQSubspaces)
	for s := 0; s < PQSubspaces; s++ {
		sub := v[s*ix.subDim : (s+1)*ix.subDim]
		cb := ix.codebooks[s]
		best, bestD := 0, float32(math.MaxFloat32)
		for c := 0; c < ix.cfg.Centroids; c++ {
			cv := cb[c*ix.subDim : (c+1)*ix.subDim]
			var d float32
			for i := range sub {
				diff := sub[i] - cv[i]
				d += diff * diff
			}
			if d < bestD {
				bestD = d
				best = c
			}
		}
		code[s] = uint8(best)
	}
	return code
}

// Add pools and quantizes one reference image's features.
func (ix *PQIndex) Add(id int, feats *blas.Matrix) error {
	if feats.Rows != ix.dim {
		return fmt.Errorf("cbir: features are %d-dimensional, index wants %d", feats.Rows, ix.dim)
	}
	for j := 0; j < feats.Cols; j++ {
		ix.codes = append(ix.codes, ix.encode(feats.Col(j))...)
		ix.owner = append(ix.owner, int32(id))
	}
	return nil
}

// Search runs asymmetric-distance (ADC) retrieval: a per-query lookup
// table of query-subvector-to-centroid distances turns each candidate
// distance into M table lookups. Votes use the same cross-image ratio test
// as the exact index.
func (ix *PQIndex) Search(query *blas.Matrix) []match.SearchResult {
	if len(ix.owner) == 0 {
		return nil
	}
	M, K, sd := PQSubspaces, ix.cfg.Centroids, ix.subDim
	table := make([]float32, M*K)
	votes := map[int]int{}
	for j := 0; j < query.Cols; j++ {
		q := query.Col(j)
		for s := 0; s < M; s++ {
			sub := q[s*sd : (s+1)*sd]
			cb := ix.codebooks[s]
			for c := 0; c < K; c++ {
				cv := cb[c*sd : (c+1)*sd]
				var d float32
				for i := range sub {
					diff := sub[i] - cv[i]
					d += diff * diff
				}
				table[s*K+c] = d
			}
		}
		best, second := float32(math.MaxFloat32), float32(math.MaxFloat32)
		bestOwner := int32(-1)
		for f := 0; f < len(ix.owner); f++ {
			code := ix.codes[f*M : (f+1)*M]
			var d float32
			for s, c := range code {
				d += table[s*K+int(c)]
			}
			if d < best {
				if ix.owner[f] != bestOwner {
					second = best
				}
				best = d
				bestOwner = ix.owner[f]
			} else if d < second && ix.owner[f] != bestOwner {
				second = d
			}
		}
		if bestOwner >= 0 && math.Sqrt(float64(best)) < match.Ratio*math.Sqrt(float64(second)) {
			votes[int(bestOwner)]++
		}
	}
	out := make([]match.SearchResult, 0, len(votes))
	for id, v := range votes {
		out = append(out, match.SearchResult{RefID: id, Score: v})
	}
	return match.RankResults(out)
}
