package cbir

import (
	"math/rand"
	"testing"
)

func TestTrainPQRandReproducible(t *testing.T) {
	train := randomUnit(rand.New(rand.NewSource(3)), 8, 32)
	cfg := PQConfig{Centroids: 4}
	a, err := TrainPQRand(train, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainPQRand(train, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.codebooks {
		for i := range a.codebooks[s] {
			if a.codebooks[s][i] != b.codebooks[s][i] {
				t.Fatalf("codebook %d entry %d differs between identically seeded generators", s, i)
			}
		}
	}
}

func TestTrainPQMatchesSeededRand(t *testing.T) {
	train := randomUnit(rand.New(rand.NewSource(3)), 8, 32)
	cfg := PQConfig{Centroids: 4}
	a, err := TrainPQ(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainPQRand(train, cfg, rand.New(rand.NewSource(pqSeed)))
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.codebooks {
		for i := range a.codebooks[s] {
			if a.codebooks[s][i] != b.codebooks[s][i] {
				t.Fatal("TrainPQ must equal TrainPQRand with a pqSeed-seeded generator")
			}
		}
	}
}
