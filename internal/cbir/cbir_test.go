package cbir

import (
	"math"
	"math/rand"
	"testing"

	"texid/internal/blas"
)

// cluster builds a feature matrix whose columns are noisy copies of a
// per-image prototype set, giving each "image" a distinctive signature.
func clusterFeatures(rng *rand.Rand, protos *blas.Matrix, sigma float32) *blas.Matrix {
	out := protos.Clone()
	for j := 0; j < out.Cols; j++ {
		col := out.Col(j)
		var s float64
		for i := range col {
			col[i] += (rng.Float32()*2 - 1) * sigma
			if col[i] < 0 {
				col[i] = 0
			}
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(1 / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return out
}

func randomUnit(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var s float64
		for i := range col {
			col[i] = rng.Float32()
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(1 / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return m
}

func TestExactIndexIdentifies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, k := 16, 20
	ix := NewIndex(d)
	protos := make([]*blas.Matrix, 5)
	for id := range protos {
		protos[id] = randomUnit(rng, d, k)
		if err := ix.Add(id, protos[id]); err != nil {
			t.Fatal(err)
		}
	}
	if len(ix.owner) != 5*k {
		t.Fatalf("pooled %d features", len(ix.owner))
	}
	query := clusterFeatures(rng, protos[3], 0.02)
	res := ix.Search(query)
	if len(res) == 0 || res[0].RefID != 3 {
		t.Fatalf("exact CBIR failed: %v", res)
	}
	if res[0].Score < k/2 {
		t.Fatalf("too few votes: %d", res[0].Score)
	}
}

func TestExactIndexDimensionCheck(t *testing.T) {
	ix := NewIndex(8)
	if err := ix.Add(0, blas.NewMatrix(9, 2)); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestPQTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := TrainPQ(randomUnit(rng, 12, 50), PQConfig{Centroids: 8}); err == nil {
		t.Fatal("non-divisible subspaces accepted")
	}
	train := randomUnit(rng, 16, 50)
	if _, err := TrainPQ(train, PQConfig{Centroids: 300}); err == nil {
		t.Fatal("over-wide codebook accepted")
	}
	if _, err := TrainPQ(train, PQConfig{Centroids: 100}); err == nil {
		t.Fatal("too few training vectors accepted")
	}
}

func TestPQIdentifiesAndCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, k := 16, 24
	protos := make([]*blas.Matrix, 6)
	var trainCols [][]float32
	for id := range protos {
		protos[id] = randomUnit(rng, d, k)
		for j := 0; j < k; j++ {
			trainCols = append(trainCols, protos[id].Col(j))
		}
	}
	train := blas.FromColumns(d, trainCols)
	ix, err := TrainPQ(train, PQConfig{Centroids: 32})
	if err != nil {
		t.Fatal(err)
	}
	for id := range protos {
		if err := ix.Add(id, protos[id]); err != nil {
			t.Fatal(err)
		}
	}
	// Compression: 8 bytes per descriptor vs 64 bytes FP32.
	if len(ix.codes) != len(ix.owner)*PQSubspaces {
		t.Fatalf("code bytes %d for %d features", len(ix.codes), len(ix.owner))
	}
	query := clusterFeatures(rng, protos[2], 0.01)
	res := ix.Search(query)
	if len(res) == 0 || res[0].RefID != 2 {
		t.Fatalf("PQ CBIR failed: %v", res)
	}
}

func TestPQLosesDiscriminationVsExact(t *testing.T) {
	// The paper's Sec. 2 point, in miniature: under heavy quantization the
	// ratio test passes fewer query features (vote counts shrink) than the
	// exact pooled index.
	rng := rand.New(rand.NewSource(4))
	d, k := 16, 24
	protos := make([]*blas.Matrix, 8)
	exact := NewIndex(d)
	var trainCols [][]float32
	for id := range protos {
		protos[id] = randomUnit(rng, d, k)
		exact.Add(id, protos[id])
		for j := 0; j < k; j++ {
			trainCols = append(trainCols, protos[id].Col(j))
		}
	}
	// A very coarse quantizer (4 centroids per subspace) to make the
	// effect unmistakable at this tiny scale.
	pq, err := TrainPQ(blas.FromColumns(d, trainCols), PQConfig{Centroids: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id := range protos {
		pq.Add(id, protos[id])
	}
	exactVotes, pqVotes := 0, 0
	for trial := 0; trial < 4; trial++ {
		q := clusterFeatures(rng, protos[trial], 0.05)
		if r := exact.Search(q); len(r) > 0 && r[0].RefID == trial {
			exactVotes += r[0].Score
		}
		if r := pq.Search(q); len(r) > 0 && r[0].RefID == trial {
			pqVotes += r[0].Score
		}
	}
	if pqVotes >= exactVotes {
		t.Fatalf("coarse PQ should lose votes vs exact: pq=%d exact=%d", pqVotes, exactVotes)
	}
	t.Logf("true-image votes: exact %d, coarse PQ %d", exactVotes, pqVotes)
}

func TestPQDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train := randomUnit(rng, 8, 64)
	cfg := PQConfig{Centroids: 16}
	a, _ := TrainPQ(train, cfg)
	b, _ := TrainPQ(train, cfg)
	for s := range a.codebooks {
		for i := range a.codebooks[s] {
			if a.codebooks[s][i] != b.codebooks[s][i] {
				t.Fatal("training not deterministic")
			}
		}
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := NewIndex(8)
	if res := ix.Search(randomUnit(rng, 8, 4)); len(res) != 0 {
		t.Fatalf("empty exact index returned %v", res)
	}
	pq, _ := TrainPQ(randomUnit(rng, 8, 32), PQConfig{Centroids: 8})
	if res := pq.Search(randomUnit(rng, 8, 4)); len(res) != 0 {
		t.Fatalf("empty PQ index returned %v", res)
	}
}
