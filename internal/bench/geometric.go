package bench

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
	"texid/internal/texture"
)

// AblateGeometric isolates the pipeline's final stage (Fig. 2): RANSAC
// geometric verification. Raw ratio-test matches occasionally agree by
// accident — repetitive texture produces a handful of scattered false
// correspondences — so at an aggressive acceptance threshold, foreign
// textures can be falsely accepted. Geometric verification requires the
// correspondences to agree on one similarity transform, which accidental
// matches never do. The experiment measures true-query accuracy and
// foreign-query false-accept rate with and without verification at a low
// threshold.
func AblateGeometric(opts Options) *Table {
	const lowThreshold = 3
	t := &Table{
		ID: "Ablate-geometric",
		Title: fmt.Sprintf("RANSAC geometric verification at an aggressive threshold (min matches %d)",
			lowThreshold),
		Header: []string{"Post-processing", "True-query accuracy", "Foreign false-accept rate"},
	}

	p := texture.DefaultGenParams()
	p.Size = opts.ImageSize
	ds := texture.BuildDataset(opts.Seed, opts.Refs, opts.Queries, opts.Difficulty, p)
	// Foreign textures: never enrolled, captured like real queries.
	foreignBase := texture.BuildDataset(opts.Seed+999_999, opts.Queries, opts.Queries, opts.Difficulty, p)

	cfg := sift.DefaultConfig()
	cfg.MaxFeatures = 0
	m := opts.scaled(384)
	n := opts.scaled(768)

	extract := func(im *texture.Image) *sift.Features { return sift.Extract(im, cfg) }
	refs := make([]*sift.Features, len(ds.Refs))
	for i, im := range ds.Refs {
		refs[i] = extract(im)
	}
	queries := make([]*sift.Features, len(ds.Queries))
	for i, im := range ds.Queries {
		queries[i] = extract(im)
	}
	foreign := make([]*sift.Features, len(foreignBase.Queries))
	for i, im := range foreignBase.Queries {
		foreign[i] = extract(im)
	}

	dev := gpusim.NewDevice(gpusim.TeslaP100())
	stream := dev.NewStream()
	refMats := make([]*blas.Matrix, len(refs))
	ids := make([]int, len(refs))
	for i, f := range refs {
		refMats[i] = trim(f, m, true)
		ids[i] = i
	}
	rb, err := knn.NewRefBatch(dev, ids, refMats, gpusim.FP32, 1, false)
	if err != nil {
		panic(fmt.Sprintf("bench: ref batch: %v", err))
	}

	// evaluate scores one query against all refs under a match config.
	evaluate := func(qf *sift.Features, mcfg match.Config) (int, bool) {
		q, err := knn.NewQuery(dev, trim(qf, n, true), gpusim.FP32, 1)
		if err != nil {
			panic(fmt.Sprintf("bench: query: %v", err))
		}
		defer q.Free()
		pairs, err := knn.MatchBatch(stream, rb, q, knn.Options{Algorithm: knn.RootSIFT, Precision: gpusim.FP32})
		if err != nil {
			panic(fmt.Sprintf("bench: match: %v", err))
		}
		var results []match.SearchResult
		for _, pair := range pairs {
			refKps := refs[pair.RefID].Keypoints
			if len(refKps) > m {
				refKps = refKps[:m]
			}
			qKps := qf.Keypoints
			if len(qKps) > n {
				qKps = qKps[:n]
			}
			results = append(results, match.SearchResult{
				RefID: pair.RefID,
				Score: match.PairScore(pair, refKps, qKps, mcfg),
			})
		}
		top, ok := match.Identify(results, mcfg)
		return top.RefID, ok
	}

	for _, geometric := range []bool{false, true} {
		mcfg := match.DefaultConfig()
		mcfg.EdgeMargin = 0
		mcfg.ImageSize = opts.ImageSize
		mcfg.MinMatches = lowThreshold
		mcfg.Geometric = geometric
		mcfg.RANSACTol = 5

		correct := 0
		for qi, qf := range queries {
			id, ok := evaluate(qf, mcfg)
			if ok && id == ds.Truth[qi] {
				correct++
			}
		}
		falseAccepts := 0
		for _, qf := range foreign {
			if _, ok := evaluate(qf, mcfg); ok {
				falseAccepts++
			}
		}
		name := "ratio test only"
		if geometric {
			name = "ratio test + RANSAC"
		}
		t.AddRow(name,
			pct(float64(correct)/float64(len(queries))),
			pct(float64(falseAccepts)/float64(len(foreign))))
	}
	t.AddNote("geometric verification suppresses accidental correspondences that clear a low raw-match " +
		"threshold; the paper's Fig. 2 pipeline runs it as the final stage (its Table 1 microbenchmarks skip it)")
	return t
}
