package knn

import (
	"math/rand"
	"testing"

	"texid/internal/blas"
	"texid/internal/gpusim"
)

// matchMulti stages queries as one panel and matches it against the whole
// batch with fresh buffers (the nil-scratch path).
func matchMulti(stream *gpusim.Stream, rb *RefBatch, queries []*Query, opts Options) ([][]Pair2NN, error) {
	mq, err := BuildMultiQuery(queries, opts.Precision, nil)
	if err != nil {
		return nil, err
	}
	return MatchMultiQueryInto(stream, rb, mq, opts, nil)
}

func TestMultiQueryMatchesSingleQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d, m, n := 16, 20, 12
	dev := newTestDevice()
	stream := dev.NewStream()

	refs := []*blas.Matrix{rootSIFTFeatures(rng, d, m), rootSIFTFeatures(rng, d, m), rootSIFTFeatures(rng, d, m)}
	rb, err := NewRefBatch(dev, []int{0, 1, 2}, refs, gpusim.FP32, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	qmats := []*blas.Matrix{rootSIFTFeatures(rng, d, n), rootSIFTFeatures(rng, d, n)}
	queries := make([]*Query, len(qmats))
	for i, qm := range qmats {
		queries[i], err = NewQuery(dev, qm, gpusim.FP32, 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Algorithm: RootSIFT, Precision: gpusim.FP32}

	multi, err := matchMulti(stream, rb, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 2 || len(multi[0]) != 3 {
		t.Fatalf("result shape [%d][%d]", len(multi), len(multi[0]))
	}
	for qi, q := range queries {
		single, err := MatchBatch(stream, rb, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for b := range single {
			for j := 0; j < n; j++ {
				if multi[qi][b].Best[j] != single[b].Best[j] ||
					multi[qi][b].BestIdx[j] != single[b].BestIdx[j] ||
					multi[qi][b].Second[j] != single[b].Second[j] {
					t.Fatalf("query %d ref %d feature %d: multi/single mismatch", qi, b, j)
				}
			}
		}
	}
}

func TestMultiQueryFP16(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d, m, n := 32, 16, 8
	dev := newTestDevice()
	stream := dev.NewStream()
	refs := []*blas.Matrix{rootSIFTFeatures(rng, d, m)}
	rb, _ := NewRefBatch(dev, []int{0}, refs, gpusim.FP16, 1, false)
	q1, _ := NewQuery(dev, rootSIFTFeatures(rng, d, n), gpusim.FP16, 1)
	q2, _ := NewQuery(dev, rootSIFTFeatures(rng, d, n), gpusim.FP16, 1)
	opts := Options{Algorithm: RootSIFT, Precision: gpusim.FP16, Scale: 1}
	multi, err := matchMulti(stream, rb, []*Query{q1, q2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	single, _ := MatchBatch(stream, rb, q2, opts)
	for j := 0; j < n; j++ {
		if multi[1][0].BestIdx[j] != single[0].BestIdx[j] {
			t.Fatalf("FP16 multi/single best index mismatch at feature %d", j)
		}
	}
}

func TestMultiQueryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dev := newTestDevice()
	stream := dev.NewStream()
	refs := []*blas.Matrix{rootSIFTFeatures(rng, 16, 8)}
	rb, _ := NewRefBatch(dev, []int{0}, refs, gpusim.FP32, 1, true)

	if _, err := matchMulti(stream, rb, nil, Options{Algorithm: RootSIFT}); err == nil {
		t.Fatal("empty query batch accepted")
	}
	q, _ := NewQuery(dev, rootSIFTFeatures(rng, 16, 8), gpusim.FP16, 1)
	if _, err := matchMulti(stream, rb, []*Query{q}, Options{Algorithm: Eq1Top2}); err == nil {
		t.Fatal("non-RootSIFT algorithm accepted")
	}
	ragged, _ := NewQuery(dev, rootSIFTFeatures(rng, 16, 5), gpusim.FP16, 1)
	if _, err := matchMulti(stream, rb, []*Query{q, ragged}, Options{Algorithm: RootSIFT}); err == nil {
		t.Fatal("ragged query batch accepted")
	}
}

func TestMultiQueryThroughputBeatsSequential(t *testing.T) {
	// The point of Sec. 5.3: batching queries raises GEMM data reuse, so a
	// query batch completes faster than the same queries issued one by one.
	dev := newTestDevice()
	stream := dev.NewStream()
	rb, err := PhantomRefBatch(dev, 64, 768, 128, gpusim.FP16, false)
	if err != nil {
		t.Fatal(err)
	}
	const Bq = 16
	queries := make([]*Query, Bq)
	for i := range queries {
		queries[i], err = PhantomQuery(dev, 768, 128)
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Algorithm: RootSIFT, Precision: gpusim.FP16}

	t0 := dev.Synchronize()
	if _, err := matchMulti(stream, rb, queries, opts); err != nil {
		t.Fatal(err)
	}
	batched := dev.Synchronize() - t0

	t0 = dev.Synchronize()
	for range queries {
		if _, err := MatchBatch(stream, rb, queries[0], opts); err != nil {
			t.Fatal(err)
		}
	}
	sequential := dev.Synchronize() - t0

	if batched >= sequential {
		t.Fatalf("query batching did not help: batched %.0f us vs sequential %.0f us", batched, sequential)
	}
	t.Logf("batched %.0f us vs sequential %.0f us (%.2fx)", batched, sequential, sequential/batched)
}
