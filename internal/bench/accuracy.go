package bench

import (
	"fmt"
	"math"
	"slices"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/half"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
)

// accDataset is the functional accuracy benchmark: real SIFT features
// extracted from the synthetic tea-brick dataset, kept at full feature
// count so each experiment can trim to its (m, n) budget.
type accDataset struct {
	refs    []*sift.Features // raw SIFT, response-sorted, norm-512
	queries []*sift.Features
	truth   []int // the reference each query shows
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

// accCounts is what searchAccuracy counts over a query set.
type accCounts struct {
	correct  int     // accepted, with the true reference ranked first
	accepted int     // accepted at all
	recalled int     // the true reference is among the ranked candidates
	compared int     // references matched, summed over the queries
	simUS    float64 // simulated search time, summed over the queries
}

// accConfig is the engine configuration of an accuracy run: the given 2-NN
// variant and storage precision at m reference and n query features,
// accepting by the open-set MinMatches rule alone.
func accConfig(alg knn.Algorithm, prec gpusim.Precision, m, n int, opts Options) engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Algorithm, cfg.Precision = alg, prec
	cfg.RefFeatures, cfg.QueryFeatures = m, n
	cfg.Match = match.Config{MinMatches: opts.MinMatches}
	return cfg
}

// searchAccuracy answers the accuracy queries the way the served engine
// does: it enrolls ds's references, trimmed to cfg.RefFeatures columns, in
// an engine built from cfg, answers every query, trimmed to
// cfg.QueryFeatures, with engine.Search and counts the answers. rootSIFT
// applies the Hellinger transform to both sides; with cfg.Match.Geometric
// both sides also carry their trimmed keypoints for the RANSAC step.
func searchAccuracy(ds *accDataset, cfg engine.Config, rootSIFT bool) accCounts {
	eng, err := engine.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("bench: accuracy engine: %v", err))
	}
	keypoints := func(f *sift.Features, k int) []sift.Keypoint {
		if !cfg.Match.Geometric {
			return nil
		}
		return f.Keypoints[:min(len(f.Keypoints), k)]
	}
	for i, f := range ds.refs {
		if err := eng.Add(i, trim(f, cfg.RefFeatures, rootSIFT), keypoints(f, cfg.RefFeatures)); err != nil {
			panic(fmt.Sprintf("bench: accuracy enroll: %v", err))
		}
	}
	var c accCounts
	for qi, qf := range ds.queries {
		rep, err := eng.Search(trim(qf, cfg.QueryFeatures, rootSIFT), keypoints(qf, cfg.QueryFeatures))
		if err != nil {
			panic(fmt.Sprintf("bench: accuracy search: %v", err))
		}
		truth := ds.truth[qi]
		if slices.ContainsFunc(rep.Ranked, func(r match.SearchResult) bool { return r.RefID == truth }) {
			c.recalled++
		}
		if rep.Accepted {
			c.accepted++
			if rep.BestID == truth {
				c.correct++
			}
		}
		c.compared += rep.Compared
		c.simUS += rep.ElapsedUS
	}
	return c
}

// top1Accuracy is the share of ds's queries that searchAccuracy identifies
// correctly: the true reference ranks first AND clears the MinMatches
// acceptance threshold (open-set identification — a weak best match is a
// rejection).
func top1Accuracy(ds *accDataset, cfg engine.Config, rootSIFT bool) float64 {
	return float64(searchAccuracy(ds, cfg, rootSIFT).correct) / float64(len(ds.queries))
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

// table2 reproduces Table 2: FP16 compression error and top-1 search
// accuracy across scale factors, on real (scaled-down) SIFT features.
func (r *runner) table2() *Table {
	opts, ds := r.opts, r.dataset()
	m := opts.scaled(768)
	n := opts.scaled(768)
	t := &Table{
		ID: "Table 2",
		Title: fmt.Sprintf("FP16 compression error and accuracy vs scale factor (m=n=%d, %d refs, %d queries)",
			m, opts.Refs, len(ds.queries)),
		Header: []string{"Precision", "Scale factor", "Avg compression error", "Top-1 accuracy"},
	}

	fullPrec := top1Accuracy(ds, accConfig(knn.Eq1Top2, gpusim.FP32, m, n, opts), false)
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
		cfg := accConfig(knn.Eq1Top2, gpusim.FP16, m, n, opts)
		cfg.Scale, cfg.Accum = scale, blas.AccumFP16
		acc := top1Accuracy(ds, cfg, false)
		t.AddRow("FP16", label, pct(err), pct(acc))
	}
	t.AddNote("paper (m=n=768, tea-brick dataset): full precision 98.58%%; scales 1 and 2^-1 overflow; " +
		"2^-2..2^-12 error 0.1026%% at full accuracy; 2^-14 0.1043%%/98.31%%; 2^-16 0.3492%%/98.31%%")
	t.AddNote("dimensions scaled by 1/%d by -feature-scale (default 4) to keep the default run short; "+
		"full budgets are ROADMAP's item \"The paper's accuracy tables at the paper's resolution\"", opts.FeatureScale)
	return t
}

// table7 reproduces Table 7: accuracy and speed of asymmetric feature
// extraction. Accuracy runs the real pipeline at scaled dimensions (FP32
// matching; the FP16 delta is covered by Table 2); speed runs a phantom
// search at the paper's full dimensions.
func (r *runner) table7() *Table {
	opts, ds := r.opts, r.dataset()
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
		acc := top1Accuracy(ds, accConfig(knn.RootSIFT, gpusim.FP32, opts.scaled(m), opts.scaled(n), opts), true)
		_, rep := phantomSearch(phantomConfig(spec, knn.RootSIFT, gpusim.FP16, 256, m, n, paperD), 1)
		speed := 256e6 / rep.ElapsedUS
		t.AddRow(fmt.Sprintf("%d", m), fmt.Sprintf("%d", n), pct(acc), f0(speed))
	}
	t.AddNote("paper accuracy: 97.74 / 97.74 / 97.46 / 94.07 (m sweep); 98.02 / 95.76 / 91.81 (n sweep around m=384)")
	t.AddNote("paper speed: 46,323 / 57,859 / 62,356 / 68,472; 46,204 / 91,367 / 111,818 images/s")
	t.AddNote("paper's chosen operating point m=384, n=768: accuracy loss 0.28%%, speed +34.6%%, half the reference memory")
	return t
}
