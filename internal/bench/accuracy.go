package bench

import (
	"fmt"
	"math"

	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/half"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
	"texid/internal/texture"
)

// accDataset is the functional accuracy benchmark: real SIFT features
// extracted from the synthetic tea-brick dataset, kept at full feature
// count so each experiment can trim to its (m, n) budget.
type accDataset struct {
	refs    []*sift.Features // raw SIFT, response-sorted, norm-512
	queries []*sift.Features
	truth   []int
	opts    Options
}

// buildAccDataset renders the dataset and extracts features once.
func buildAccDataset(opts Options) *accDataset {
	p := texture.DefaultGenParams()
	p.Size = opts.ImageSize
	ds := texture.BuildDataset(opts.Seed, opts.Refs, opts.Queries, opts.Difficulty, p)

	cfg := sift.DefaultConfig()
	cfg.MaxFeatures = 0 // keep everything; experiments trim
	out := &accDataset{truth: ds.Truth, opts: opts}
	out.refs = sift.ExtractBatch(ds.Refs, cfg)
	out.queries = sift.ExtractBatch(ds.Queries, cfg)
	return out
}

// trim returns the first k response-ranked descriptor columns as a fresh
// matrix; rootSIFT applies the Hellinger transform to the copy. Images
// with fewer than k features are padded with zero columns (harmless under
// unit-norm matching: a zero vector sits at distance √2 from every real
// feature, so the ratio test never selects it).
func trim(f *sift.Features, k int, rootSIFT bool) *blas.Matrix {
	have := f.Count()
	if have > k {
		have = k
	}
	m := f.Descriptors.Slice(0, have).Clone()
	if rootSIFT {
		sift.ApplyRootSIFT(m)
	}
	if have == k {
		return m
	}
	padded := blas.NewMatrix(m.Rows, k)
	for j := 0; j < have; j++ {
		copy(padded.Col(j), m.Col(j))
	}
	return padded
}

// top1Accuracy runs the full one-to-many search for every query through
// the real 2-NN kernels and returns the fraction identified correctly:
// the true reference must rank first AND clear the minMatches acceptance
// threshold (open-set identification — a weak best match is a rejection).
func top1Accuracy(ds *accDataset, m, n int, rootSIFT bool, opts knn.Options, minMatches int) float64 {
	dev := gpusim.NewDevice(gpusim.TeslaP100())
	stream := dev.NewStream()

	refMats := make([]*blas.Matrix, len(ds.refs))
	ids := make([]int, len(ds.refs))
	for i, f := range ds.refs {
		refMats[i] = trim(f, m, rootSIFT)
		ids[i] = i
	}
	withNorms := opts.Algorithm != knn.RootSIFT
	rb, err := knn.NewRefBatch(dev, ids, refMats, opts.Precision, opts.Scale, withNorms)
	if err != nil {
		panic(fmt.Sprintf("bench: ref batch: %v", err))
	}
	defer rb.Free()

	correct := 0
	for qi, qf := range ds.queries {
		q, err := knn.NewQuery(dev, trim(qf, n, rootSIFT), opts.Precision, opts.Scale)
		if err != nil {
			panic(fmt.Sprintf("bench: query: %v", err))
		}
		pairs, err := knn.MatchBatch(stream, rb, q, opts)
		if err != nil {
			panic(fmt.Sprintf("bench: match: %v", err))
		}
		var results []match.SearchResult
		for _, p := range pairs {
			results = append(results, match.SearchResult{
				RefID: p.RefID,
				Score: len(match.RatioTest(p)),
			})
		}
		top, ok := match.Identify(results, match.Config{MinMatches: minMatches})
		if ok && top.RefID == ds.truth[qi] {
			correct++
		}
		q.Free()
	}
	return float64(correct) / float64(len(ds.queries))
}

// compressionError measures the mean relative error of pairwise feature
// distances under FP16 storage with the given scale factor (Eq. 2),
// sampling up to maxPairs reference-query image pairs. It also reports
// whether any distance overflowed.
func compressionError(ds *accDataset, m, n int, scale float32, accum blas.AccumMode, maxPairs int) (avg float64, overflow bool) {
	var relSum float64
	var count int
	pairs := 0
	for ri := range ds.refs {
		for qi := range ds.queries {
			if pairs >= maxPairs {
				break
			}
			pairs++
			R := trim(ds.refs[ri], m, false)
			Q := trim(ds.queries[qi], n, false)

			exact := blas.NewMatrix(R.Cols, Q.Cols)
			blas.GemmTN(-2, R, Q, 0, exact)
			nr := blas.SquaredNorms(R)
			nq := blas.SquaredNorms(Q)

			hR, ovR := blas.HalfFromMatrix(R, scale)
			hQ, ovQ := blas.HalfFromMatrix(Q, scale)
			if ovR+ovQ > 0 {
				return 0, true
			}
			approx := blas.NewMatrix(R.Cols, Q.Cols)
			blas.HGemmTN(-2, hR, hQ, accum, approx)
			inv := 1 / (scale * scale)

			for j := 0; j < Q.Cols; j++ {
				for i := 0; i < R.Cols; i++ {
					a := float64(approx.At(i, j)) * float64(inv)
					if math.IsInf(a, 0) || math.IsNaN(a) {
						return 0, true
					}
					exactρ2 := float64(exact.At(i, j)) + float64(nr[i]) + float64(nq[j])
					approxρ2 := a + float64(nr[i]) + float64(nq[j])
					if exactρ2 <= 1e-9 {
						continue
					}
					eρ := math.Sqrt(exactρ2)
					aρ := math.Sqrt(math.Max(approxρ2, 0))
					relSum += math.Abs(aρ-eρ) / eρ
					count++
				}
			}
		}
	}
	if count == 0 {
		return 0, false
	}
	return relSum / float64(count), false
}

// Table2 reproduces Table 2: FP16 compression error and top-1 search
// accuracy across scale factors, on real (scaled-down) SIFT features.
func Table2(opts Options) *Table {
	return table2WithDataset(buildAccDataset(opts), opts)
}

func table2WithDataset(ds *accDataset, opts Options) *Table {
	m := opts.scaled(768)
	n := opts.scaled(768)
	t := &Table{
		ID: "Table 2",
		Title: fmt.Sprintf("FP16 compression error and accuracy vs scale factor (m=n=%d, %d refs, %d queries)",
			m, opts.Refs, len(ds.queries)),
		Header: []string{"Precision", "Scale factor", "Avg compression error", "Top-1 accuracy"},
	}

	fullPrec := top1Accuracy(ds, m, n, false, knn.Options{
		Algorithm: knn.Eq1Top2, Precision: gpusim.FP32,
	}, opts.MinMatches)
	t.AddRow("full precision", dash, dash, pct(fullPrec))

	maxPairs := 24
	for _, exp := range []int{0, -1, -2, -7, -12, -14, -16} {
		scale := half.PowerOfTwoScale(exp)
		label := "1"
		if exp != 0 {
			label = fmt.Sprintf("2^%d", exp)
		}
		err, overflow := compressionError(ds, m, n, scale, blas.AccumFP16, maxPairs)
		if overflow {
			t.AddRow("FP16", label, "overflow", dash)
			continue
		}
		acc := top1Accuracy(ds, m, n, false, knn.Options{
			Algorithm: knn.Eq1Top2, Precision: gpusim.FP16,
			Scale: scale, Accum: blas.AccumFP16,
		}, opts.MinMatches)
		t.AddRow("FP16", label, pct(err), pct(acc))
	}
	t.AddNote("paper (m=n=768, tea-brick dataset): full precision 98.58%%; scales 1 and 2^-1 overflow; " +
		"2^-2..2^-12 error 0.1026%% at full accuracy; 2^-14 0.1043%%/98.31%%; 2^-16 0.3492%%/98.31%%")
	t.AddNote("dimensions scaled by 1/%d by -feature-scale (default 4) to keep the default run short; full budgets are ROADMAP item 7", opts.FeatureScale)
	return t
}

// Table7 reproduces Table 7: accuracy and speed of asymmetric feature
// extraction. Accuracy runs the real pipeline at scaled dimensions (FP32
// matching; the FP16 delta is covered by Table 2); speed runs phantom
// batches at the paper's full dimensions.
func Table7(opts Options) *Table {
	return table7WithDataset(buildAccDataset(opts), opts)
}

func table7WithDataset(ds *accDataset, opts Options) *Table {
	t := &Table{
		ID: "Table 7",
		Title: fmt.Sprintf("Asymmetric feature counts: accuracy (scaled 1/%d, %d refs, %d queries) and speed (batch 256)",
			opts.FeatureScale, opts.Refs, opts.Queries),
		Header: []string{"m (reference)", "n (query)", "Top-1 accuracy", "Speed (images/s)"},
	}
	spec := gpusim.TeslaP100()
	configs := [][2]int{
		{768, 768}, {512, 768}, {384, 768}, {256, 768},
		{384, 1024}, {384, 512}, {384, 384},
	}
	for _, c := range configs {
		m, n := c[0], c[1]
		acc := top1Accuracy(ds, opts.scaled(m), opts.scaled(n), true, knn.Options{
			Algorithm: knn.RootSIFT, Precision: gpusim.FP32,
		}, opts.MinMatches)
		_, tot := runPhantomMatch(spec, knn.RootSIFT, gpusim.FP16, 256, m, n, paperD)
		speed := 256e6 / tot
		t.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", n), pct(acc), f0(speed))
	}
	t.AddNote("paper accuracy: 97.74 / 97.74 / 97.46 / 94.07 (m sweep); 98.02 / 95.76 / 91.81 (n sweep around m=384)")
	t.AddNote("paper speed: 46,323 / 57,859 / 62,356 / 68,472; 46,204 / 91,367 / 111,818 images/s")
	t.AddNote("paper's chosen operating point m=384, n=768: accuracy loss 0.28%%, speed +34.6%%, half the reference memory")
	return t
}
