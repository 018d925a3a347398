package serve

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/knn"
	"texid/internal/sift"
)

// Query is one search input for an engine-backed batcher: pre-extracted
// query features plus optional keypoints (for geometric verification).
// A nil Feats runs a phantom (timing-only) search, as in Engine.Search.
type Query struct {
	Feats *blas.Matrix
	Kps   []sift.Keypoint
}

// Result pairs a per-query report with a per-query error, so one
// malformed query in a coalesced batch fails alone instead of poisoning
// the queries it happened to share a GEMM pass with.
type Result[R any] struct {
	Rep R
	Err error
}

// Coalesce builds the Runner of a search batcher — the one place that
// decides how a coalesced batch executes. one and batch are the backend's
// single-query and multi-query searches (an engine's, or a cluster's
// scatter-gather). A batch goes to batch only when the engine can take it
// as one pass: the RootSIFT algorithm (the only batchable 2-NN variant),
// more than one query, every query real with the engine's Dim or every
// query phantom. Anything else falls back to one call per query, keeping
// the same admission accounting.
func Coalesce[R any](cfg engine.Config,
	one func(*blas.Matrix, []sift.Keypoint) (R, error),
	batch func([]*blas.Matrix, [][]sift.Keypoint) ([]R, error)) Runner[Query, Result[R]] {
	// Leader-only scatter buffers (the Runner is called by exactly one
	// goroutine at a time), reused across batches.
	var feats []*blas.Matrix
	var kps [][]sift.Keypoint

	return func(qs []Query) ([]Result[R], error) {
		results := make([]Result[R], len(qs))
		phantoms, invalid := 0, false
		for i, q := range qs {
			if q.Feats == nil {
				phantoms++
			} else if q.Feats.Rows != cfg.Dim {
				results[i].Err = fmt.Errorf("serve: query dim %d, want %d", q.Feats.Rows, cfg.Dim)
				invalid = true
			}
		}
		uniform := phantoms == 0 || phantoms == len(qs)

		if cfg.Algorithm != knn.RootSIFT || invalid || !uniform || len(qs) == 1 {
			for i, q := range qs {
				if results[i].Err == nil {
					results[i].Rep, results[i].Err = one(q.Feats, q.Kps)
				}
			}
			return results, nil
		}

		feats, kps = feats[:0], kps[:0]
		for _, q := range qs {
			feats = append(feats, q.Feats)
			kps = append(kps, q.Kps)
		}
		reps, err := batch(feats, kps)
		if err != nil {
			return nil, err
		}
		for i, rep := range reps {
			results[i].Rep = rep
		}
		return results, nil
	}
}

// EngineBatcher fronts one Engine with the micro-batching admission
// layer: concurrent Search calls coalesce into Engine.SearchBatch passes.
type EngineBatcher struct {
	b *Batcher[Query, Result[*engine.Report]]
}

// ForEngine builds the admission layer over e (see Coalesce for which
// batches coalesce and which fall back to per-query execution).
func ForEngine(e *engine.Engine, opts Options) *EngineBatcher {
	run := Coalesce(e.Config(), e.Search, func(feats []*blas.Matrix, kps [][]sift.Keypoint) ([]*engine.Report, error) {
		br, err := e.SearchBatch(feats, kps)
		if err != nil {
			return nil, err
		}
		return br.Reports, nil
	})
	return &EngineBatcher{b: New(run, opts)}
}

// Search submits one query through the admission layer and returns its
// demultiplexed per-query report. Results are bitwise identical to
// calling Engine.Search directly; only the simulated latency attribution
// differs (a coalesced query's ElapsedUS is its batch's completion time).
func (eb *EngineBatcher) Search(queryFeats *blas.Matrix, queryKps []sift.Keypoint) (*engine.Report, error) {
	r, err := eb.b.Do(Query{Feats: queryFeats, Kps: queryKps})
	if err != nil {
		return nil, err
	}
	return r.Rep, r.Err
}

// Close drains and shuts down the admission layer.
func (eb *EngineBatcher) Close() { eb.b.Close() }

// Stats returns the admission counters.
func (eb *EngineBatcher) Stats() Stats { return eb.b.Stats() }
