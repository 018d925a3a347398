package bench

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/cbir"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
)

// cbir reproduces the Sec. 2 argument as an experiment (extension): on the
// same dataset and feature budgets, compare the paper's per-image 2-NN
// matching against the CBIR pattern it rejects — a single pooled feature
// index, exact and product-quantized. Identification accuracy uses the
// same open-set top-1 rule everywhere.
func (r *runner) cbir() *Table {
	opts, ds := r.opts, r.dataset()
	m := opts.scaled(384)
	n := opts.scaled(768)
	t := &Table{
		ID: "CBIR",
		Title: fmt.Sprintf("Per-image matching vs pooled CBIR index (extension; m=%d, n=%d, %d refs, %d queries)",
			m, n, opts.Refs, len(ds.queries)),
		Header: []string{"Method", "Memory per reference", "Top-1 accuracy"},
	}
	// (a) The paper's approach: per-image 2-NN matching, FP16 storage.
	acc := top1Accuracy(ds, accConfig(knn.RootSIFT, gpusim.FP32, m, n, opts), true)
	perRefFP16 := float64(m*128*2) / 1024
	t.AddRow("per-image 2-NN (paper, FP16)", fmt.Sprintf("%.1f KB", perRefFP16), pct(acc))

	// Shared pooled data.
	refMats := make([]*blas.Matrix, len(ds.refs))
	var trainCols [][]float32
	for i, f := range ds.refs {
		refMats[i] = trim(f, m, true)
		for j := 0; j < refMats[i].Cols; j++ {
			trainCols = append(trainCols, refMats[i].Col(j))
		}
	}

	// (b) Exact pooled CBIR voting (FP32 pool, as CBIR engines keep it).
	exact := cbir.NewIndex(128)
	for i, rm := range refMats {
		if err := exact.Add(i, rm); err != nil {
			panic(fmt.Sprintf("bench: cbir add: %v", err))
		}
	}
	t.AddRow("pooled exact voting (CBIR)", fmt.Sprintf("%.1f KB", float64(m*128*4)/1024),
		pct(pooledAccuracy(ds, exact.Search, n, opts.MinMatches)))

	// (c) Product-quantized pooled index (Faiss-style, 8 bytes/feature).
	pqCfg := cbir.DefaultPQConfig()
	// Codebooks cannot exceed the training set (relevant only at tiny
	// test scales).
	if pqCfg.Centroids > len(trainCols)/2 {
		pqCfg.Centroids = len(trainCols) / 2
	}
	pq, err := cbir.TrainPQ(blas.FromColumns(128, trainCols), pqCfg)
	if err != nil {
		panic(fmt.Sprintf("bench: PQ train: %v", err))
	}
	for i, rm := range refMats {
		if err := pq.Add(i, rm); err != nil {
			panic(fmt.Sprintf("bench: PQ add: %v", err))
		}
	}
	t.AddRow("pooled PQ voting (Faiss-style)", fmt.Sprintf("%.1f KB", float64(m*cbir.PQSubspaces)/1024),
		pct(pooledAccuracy(ds, pq.Search, n, opts.MinMatches)))

	t.AddNote("the paper argues (Sec. 2) that pooled/compressed CBIR indexes trade away the fine-grained " +
		"discrimination product traceability needs; per-image matching keeps full fidelity at FP16 cost")
	t.AddNote("PQ compresses 64x vs FP32 (16x vs FP16) but flattens the vote histogram under capture perturbation")
	return t
}

// pooledAccuracy runs every query through a pooled-index search function
// and applies the open-set top-1 rule.
func pooledAccuracy(ds *accDataset, search func(*blas.Matrix) []match.SearchResult, n, minMatches int) float64 {
	correct := 0
	for qi, qf := range ds.queries {
		res := search(trim(qf, n, true))
		top, ok := match.Identify(res, match.Config{MinMatches: minMatches})
		if ok && top.RefID == ds.truth[qi] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.queries))
}
