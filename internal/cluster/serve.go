package cluster

import (
	"texid/internal/blas"
	"texid/internal/serve"
	"texid/internal/sift"
)

// This file is the coordinator-side micro-batching admission layer:
// concurrent /v1/search requests (or SearchCoalesced callers) are coalesced
// into single SearchBatch scatter passes, so every worker matches the whole
// coalesced batch with one multi-query GEMM per reference batch instead of
// one fan-out per request. Results are demultiplexed per query and are
// bitwise identical to issuing each Search alone; only the latency
// attribution differs (a coalesced query's ElapsedUS is its batch's
// completion time).

// newBatcher builds the admission layer over the cluster's scatter-gather
// paths (serve.Coalesce decides which batches take one SearchBatch scatter
// and which fall back to per-query fan-out).
func (c *Cluster) newBatcher(opts serve.Options) *serve.Batcher[serve.Query, serve.Result[*Report]] {
	run := serve.Coalesce(c.cfg.Engine, c.Search, c.SearchBatch)
	return serve.New(func(qs []serve.Query) ([]serve.Result[*Report], error) {
		// Every executed batch's size feeds the serving histogram.
		c.mBatchSize.Observe(float64(len(qs)))
		return run(qs)
	}, opts)
}

// SearchCoalesced submits one query through the micro-batching admission
// layer when one is configured (Config.Serve.MaxBatch > 1), falling back to
// a direct scatter-gather Search otherwise. Safe for concurrent use; under
// load, concurrent callers share batched GEMM passes.
//
// The coordinator path allocates per-worker goroutines and merged reports
// by design; its budget is the probe_cluster_searchbatch_scatter row of
// BENCH_BASELINE.json, beside the admission layer's (serve.Batcher) and the
// engine search path's own probe rows.
func (c *Cluster) SearchCoalesced(feats *blas.Matrix, kps []sift.Keypoint) (*Report, error) {
	if c.batcher == nil {
		return c.Search(feats, kps)
	}
	r, err := c.batcher.Do(serve.Query{Feats: feats, Kps: kps})
	if err != nil {
		return nil, err
	}
	return r.Rep, r.Err
}

// ServeStats returns the admission-layer counters; the zero Stats when no
// batcher is configured.
func (c *Cluster) ServeStats() serve.Stats {
	if c.batcher == nil {
		return serve.Stats{}
	}
	return c.batcher.Stats()
}
