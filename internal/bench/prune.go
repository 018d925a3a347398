package bench

import (
	"fmt"

	"texid/internal/gpusim"
	"texid/internal/knn"
)

// pruneSweep measures the binary Hamming prefilter (extension): for each
// candidate budget C the table reports candidate recall (did the true
// reference survive the prefilter into the rerank set), end-to-end open-set
// top-1 accuracy, the average number of references reranked, and the
// simulated per-query device time. C=0 is the unpruned baseline. The sweep
// is the acceptance gate for any change to the prefilter: accuracy at the
// default budget must match the unpruned row.
func (r *runner) pruneSweep() *Table {
	opts, ds := r.opts, r.dataset()
	m := opts.scaled(384)
	n := opts.scaled(768)
	t := &Table{
		ID: "Prune",
		Title: fmt.Sprintf("Hamming-prefilter recall vs candidate budget C (extension; m=%d, n=%d, %d refs, %d queries)",
			m, n, opts.Refs, len(ds.queries)),
		Header: []string{"C", "Candidate recall", "Top-1 accuracy", "Avg reranked", "Sim us/query"},
	}

	for _, c := range []int{0, 1, 2, 4, 8, 16} {
		// FP32: accuracy sweep, the FP16 delta is Table 2's job.
		cfg := accConfig(knn.RootSIFT, gpusim.FP32, m, n, opts)
		cfg.BatchSize, cfg.Streams, cfg.PruneC = 8, 2, c
		got := searchAccuracy(ds, cfg, true)
		nq := float64(len(ds.queries))
		label := fmt.Sprintf("%d", c)
		if c == 0 {
			label = "off"
		}
		t.AddRow(label,
			pct(float64(got.recalled)/nq),
			pct(float64(got.correct)/nq),
			fmt.Sprintf("%.1f", float64(got.compared)/nq),
			fmt.Sprintf("%.0f", got.simUS/nq))
	}
	t.AddNote("candidate recall counts queries whose true reference survives into the exact rerank; " +
		"top-1 applies the open-set MinMatches rule after the rerank")
	t.AddNote("the rerank is bitwise identical to the unpruned kernels, so accuracy can only differ " +
		"when the prefilter drops the true reference (recall < 100%%)")
	t.AddNote("wall-clock capacity: see engine_search_steady_pruned/speedup_vs_unpruned in texbench -suite, " +
		"floored at 5x at GOMAXPROCS 1 (a 10x shard at roughly unpruned-16-image latency)")
	return t
}
