package bench

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// PruneSweep measures the binary Hamming prefilter (extension): for each
// candidate budget C the table reports candidate recall (did the true
// reference survive the prefilter into the rerank set), end-to-end open-set
// top-1 accuracy, the average number of references reranked, and the
// simulated per-query device time. C=0 is the unpruned baseline. The sweep
// is the acceptance gate for any change to the prefilter: accuracy at the
// default budget must match the unpruned row.
func PruneSweep(opts Options) *Table {
	return pruneWithDataset(buildAccDataset(opts), opts)
}

func pruneWithDataset(ds *accDataset, opts Options) *Table {
	m := opts.scaled(384)
	n := opts.scaled(768)
	t := &Table{
		ID: "Prune",
		Title: fmt.Sprintf("Hamming-prefilter recall vs candidate budget C (extension; m=%d, n=%d, %d refs, %d queries)",
			m, n, opts.Refs, len(ds.queries)),
		Header: []string{"C", "Candidate recall", "Top-1 accuracy", "Avg reranked", "Sim us/query"},
	}

	for _, c := range []int{0, 1, 2, 4, 8, 16} {
		cfg := engine.DefaultConfig()
		cfg.Precision = gpusim.FP32 // accuracy sweep: FP16 delta is Table 2's job
		cfg.Accum = blas.AccumFP32
		cfg.Algorithm = knn.RootSIFT
		cfg.BatchSize = 8
		cfg.Streams = 2
		cfg.RefFeatures = m
		cfg.QueryFeatures = n
		cfg.Match.MinMatches = opts.MinMatches
		cfg.PruneC = c
		eng, err := engine.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("bench: prune engine: %v", err))
		}
		for i, f := range ds.refs {
			if err := eng.Add(i, trim(f, m, true), nil); err != nil {
				panic(fmt.Sprintf("bench: prune enroll: %v", err))
			}
		}

		recalled, correct, compared := 0, 0, 0
		var simUS float64
		for qi, qf := range ds.queries {
			rep, err := eng.Search(trim(qf, n, true), nil)
			if err != nil {
				panic(fmt.Sprintf("bench: prune search: %v", err))
			}
			for _, r := range rep.Ranked {
				if r.RefID == ds.truth[qi] {
					recalled++
					break
				}
			}
			if rep.Accepted && rep.BestID == ds.truth[qi] {
				correct++
			}
			compared += rep.Compared
			simUS += rep.ElapsedUS
		}
		nq := len(ds.queries)
		label := fmt.Sprintf("%d", c)
		if c == 0 {
			label = "off"
		}
		t.AddRow(label,
			pct(float64(recalled)/float64(nq)),
			pct(float64(correct)/float64(nq)),
			fmt.Sprintf("%.1f", float64(compared)/float64(nq)),
			fmt.Sprintf("%.0f", simUS/float64(nq)))
	}
	t.AddNote("candidate recall counts queries whose true reference survives into the exact rerank; " +
		"top-1 applies the open-set MinMatches rule after the rerank")
	t.AddNote("the rerank is bitwise identical to the unpruned kernels, so accuracy can only differ " +
		"when the prefilter drops the true reference (recall < 100%%)")
	t.AddNote("wall-clock capacity: see engine_search_steady_pruned/speedup_vs_unpruned in texbench -suite, " +
		"floored at 5x at GOMAXPROCS 1 (a 10x shard at roughly unpruned-16-image latency)")
	return t
}
