package bench

import (
	"fmt"

	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
)

// ablateGeometric isolates the pipeline's final stage (Fig. 2): RANSAC
// geometric verification. Raw ratio-test matches occasionally agree by
// accident — repetitive texture produces a handful of scattered false
// correspondences — so at an aggressive acceptance threshold, foreign
// textures can be falsely accepted. Geometric verification requires the
// correspondences to agree on one similarity transform, which accidental
// matches never do. The experiment measures true-query accuracy and
// foreign-query false-accept rate with and without verification at a low
// threshold.
func (r *runner) ablateGeometric() *Table {
	opts, ds := r.opts, r.dataset()
	const lowThreshold = 3
	t := &Table{
		ID: "Ablate-geometric",
		Title: fmt.Sprintf("RANSAC geometric verification at an aggressive threshold (min matches %d)",
			lowThreshold),
		Header: []string{"Post-processing", "True-query accuracy", "Foreign false-accept rate"},
	}

	// Foreign textures: never enrolled, captured like real queries, so no
	// reference is theirs and every acceptance is a false one.
	fo := opts
	fo.Seed, fo.Refs = opts.Seed+999_999, opts.Queries
	fq := extractAll((&runner{opts: fo}).images().Queries)
	foreign := &accDataset{refs: ds.refs, queries: fq, truth: make([]int, len(fq))}
	for i := range foreign.truth {
		foreign.truth[i] = -1
	}

	for _, geometric := range []bool{false, true} {
		cfg := accConfig(knn.RootSIFT, gpusim.FP32, opts.scaled(384), opts.scaled(768), opts)
		cfg.Match = match.Config{MinMatches: lowThreshold, Geometric: geometric, RANSACTol: 5}
		name := "ratio test only"
		if geometric {
			name = "ratio test + RANSAC"
		}
		t.AddRow(name,
			pct(top1Accuracy(ds, cfg, true)),
			pct(float64(searchAccuracy(foreign, cfg, true).accepted)/float64(len(foreign.queries))))
	}
	t.AddNote("geometric verification suppresses accidental correspondences that clear a low raw-match " +
		"threshold; the paper's Fig. 2 pipeline runs it as the final stage (its Table 1 microbenchmarks skip it)")
	return t
}
