package engine

import (
	"fmt"

	"texid/internal/blas"
	"texid/internal/cache"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
)

// Report is the outcome of one one-to-many search: an engine's answer, and
// the body of the coordinator's merged answer (cluster.Report embeds it).
type Report struct {
	// BestID is the highest-scoring reference (-1 when nothing was scored:
	// an empty index or a phantom search); Accepted says whether its Score
	// cleared the MinMatches decision threshold. Rank sets all three.
	BestID   int
	Score    int
	Accepted bool
	// Ranked holds the scored candidates in descending score order, at most
	// as many as the caller of Rank bounds it to (omitted for phantom
	// searches).
	Ranked []match.SearchResult
	// Compared is the number of reference images matched (with pruning
	// enabled, the candidates that survived the prefilter).
	Compared int
	// Scanned is the number of reference images the binary prefilter
	// scanned (zero when pruning is disabled).
	Scanned int
	// ElapsedUS is the simulated wall time of the search and Speed the
	// resulting throughput in image comparisons per second.
	ElapsedUS float64
	Speed     float64
}

// Rank is the one decision over a report's candidates: it sorts Ranked in
// match.RankResults' order, keeps at most limit of them (limit <= 0 keeps
// all), and takes BestID and Score from the first, accepting it by
// match.Verify. A report with no candidates is left as it is.
func (r *Report) Rank(cfg match.Config, limit int) {
	if len(r.Ranked) == 0 {
		return
	}
	r.Ranked = match.RankResults(r.Ranked)
	if limit > 0 && len(r.Ranked) > limit {
		r.Ranked = r.Ranked[:limit]
	}
	r.BestID, r.Score = r.Ranked[0].RefID, r.Ranked[0].Score
	r.Accepted = match.Verify(r.Score, cfg)
}

// BatchReport is the outcome of a multi-query search: per-query reports
// plus the batch-level throughput/latency trade-off (Sec. 5.3: batching
// queries raises throughput but every query's latency becomes the whole
// batch's completion time).
type BatchReport struct {
	Reports []*Report
	// ElapsedUS is the simulated completion time of the whole batch; it is
	// also every individual query's latency.
	ElapsedUS float64
	// Throughput is reference comparisons per second across the batch.
	Throughput float64
	// Compared is the total number of (query, reference) comparisons.
	Compared int
}

// Search runs a one-to-many search of the query features (Dim×n, any n up
// to QueryFeatures) against every cached reference: the search pass with a
// panel of one. queryKps may be nil unless geometric verification is
// enabled; a nil queryFeats runs a phantom (timing-only) search.
func (e *Engine) Search(queryFeats *blas.Matrix, queryKps []sift.Keypoint) (*Report, error) {
	// Fixed-size panels of one: the pass retains none of its inputs, so
	// these stay on the stack.
	feats, kps, rep := [1]*blas.Matrix{queryFeats}, [1][]sift.Keypoint{queryKps}, [1]*Report{}
	if _, err := e.search(feats[:], kps[:], rep[:]); err != nil {
		return nil, err
	}
	return rep[0], nil
}

// SearchBatch answers several queries in one pass: one GEMM per reference
// batch serves the whole query panel. Only the RootSIFT algorithm supports
// query batching. The queries are all real or all nil (phantom timing, see
// SearchBatchPhantom); queryKps may be nil or shorter than the batch.
func (e *Engine) SearchBatch(queryFeats []*blas.Matrix, queryKps [][]sift.Keypoint) (*BatchReport, error) {
	if e.cfg.Algorithm != knn.RootSIFT {
		return nil, fmt.Errorf("engine: query batching requires the RootSIFT algorithm")
	}
	if len(queryFeats) == 0 {
		return nil, fmt.Errorf("engine: empty query batch")
	}
	br, err := e.search(queryFeats, queryKps, make([]*Report, len(queryFeats)))
	if err != nil {
		return nil, err
	}
	return &br, nil
}

// SearchBatchPhantom runs a timing-only batched-query search with count
// phantom queries.
func (e *Engine) SearchBatchPhantom(count int) (*BatchReport, error) {
	return e.SearchBatch(make([]*blas.Matrix, count), nil)
}

// search is the one search pass; every search shape is an input to it, not
// a variant of it. It stages the query panel, optionally runs the Hamming
// prefilter (PruneC > 0), then walks the cached batches once — per batch a
// slot set, the H2D decision, one kernel call, one scoring loop — and
// assembles reports[qi] for queryFeats[qi]. Two rules are read off the
// input rather than configured:
//
//   - A lone query keeps its own column count; a panel of several pads
//     short queries with zero columns to QueryFeatures so it is rectangular.
//   - A nil slot set means the whole batch (pruning off). With pruning on,
//     a batch is matched on the union of its queries' candidates — even
//     when that is every slot — and skipped outright when that is empty:
//     for a host-resident batch only the candidates' columns cross PCIe,
//     which is where the capacity gain comes from.
//
// Batches are issued round-robin across the streams (batch bi on stream
// bi mod S), which approximates concurrent host threads while keeping the
// simulation deterministic; host-resident batches stream over PCIe,
// overlapping other streams' kernels. Each batch's results alias e.scratch,
// so they are scored immediately, before the next issue reuses the buffers.
// Scoring batch-major preserves each query's ranking order: its candidates
// still arrive in batch order.
func (e *Engine) search(queryFeats []*blas.Matrix, queryKps [][]sift.Keypoint, reports []*Report) (BatchReport, error) {
	Bq := len(queryFeats)
	phantom := queryFeats[0] == nil
	for i, qf := range queryFeats {
		if (qf == nil) != phantom {
			return BatchReport{}, fmt.Errorf("engine: query batch mixes phantom (nil) and real queries")
		}
		if !phantom && qf.Rows != e.cfg.Dim {
			return BatchReport{}, fmt.Errorf("engine: query %d dim %d, want %d", i, qf.Rows, e.cfg.Dim)
		}
	}

	// One pass at a time over the shared streams and scratch; the index
	// itself is only read-locked, so enrollment blocks searching (and vice
	// versa) no longer than one in-flight pass.
	e.execMu.Lock()
	defer e.execMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Search with nothing pending, so every reference enrolled before this
	// point is visible: an Add (or an Update of a still-pending id) landing
	// between a seal and the read lock would otherwise stay unsearched. The
	// steady state costs the one read lock; a dirty index drops it to seal
	// under the write lock, then looks again.
	var err error
	for err == nil && len(e.pending) > 0 {
		e.mu.RUnlock()
		err = e.Flush()
		e.mu.RLock()
	}
	if err != nil {
		return BatchReport{}, err
	}

	// Stage the panel through engine-owned scratch, one QueryScratch per
	// panel slot, grown to the largest batch seen.
	if len(e.qscratch) < Bq {
		e.qscratch = append(e.qscratch, make([]knn.QueryScratch, Bq-len(e.qscratch))...)
	}
	e.queries = e.queries[:0]
	defer e.freeQueries()
	for i, qf := range queryFeats {
		q, err := e.stageQuery(i, qf, Bq > 1)
		if err != nil {
			return BatchReport{}, err
		}
		// Slot i stages through its own QueryScratch, so slot i's query
		// outlives slot i+1's staging (TestStageQueryReuse).
		e.queries = append(e.queries, q)
	}
	mq, err := knn.BuildMultiQuery(e.queries, e.cfg.Precision, &e.scratch)
	if err != nil {
		return BatchReport{}, err
	}

	items := e.hybrid.AppendItems(e.itemsBuf[:0])
	e.itemsBuf = items
	opts := knn.Options{
		Algorithm: e.cfg.Algorithm,
		Precision: e.cfg.Precision,
		Scale:     e.cfg.Scale,
		Accum:     e.cfg.Accum,
	}
	for qi := range reports {
		reports[qi] = &Report{BestID: -1}
		if !phantom {
			reports[qi].Ranked = make([]match.SearchResult, 0, len(e.refs))
		}
	}

	start := e.dev.Synchronize()
	ps, pruned := &e.prune, e.cfg.PruneC > 0
	if pruned {
		scanned := e.prefilter(queryFeats, phantom, items)
		for _, rep := range reports {
			rep.Scanned = scanned
		}
	}
	for bi, it := range items {
		rb, refs := it.Payload.rb, it.Payload.refs
		var slots []int32 // nil: the whole batch
		var need []bool   // nil: every (slot, query) result is read
		h2d := rb.Bytes()
		if pruned {
			if slots = ps.batchSlots(bi, rb.Count()); len(slots) == 0 {
				continue
			}
			need = ps.needed(bi)
			h2d = int64(len(slots)) * int64(rb.M) * int64(rb.D) * int64(e.cfg.Precision.ElemBytes())
		}
		stream := e.streams[bi%len(e.streams)]
		if it.Loc == cache.OnHost {
			// Stream the batch (or its candidates' columns) into this
			// stream's staging buffer.
			stream.CopyH2D(h2d, e.cfg.PinnedHost)
		}
		res, err := knn.Match(stream, rb, mq, slots, need, opts, &e.scratch)
		if err != nil {
			return BatchReport{}, err
		}
		for qi, rep := range reports {
			n := rb.Count() // result rows that are this query's
			if pruned {
				n = ps.picked(qi)
			}
			rep.Compared += n
			if phantom {
				continue
			}
			var kps []sift.Keypoint
			if qi < len(queryKps) {
				kps = queryKps[qi]
			}
			for k := 0; k < n; k++ {
				at, slot := k, k // result row, batch slot
				if pruned {
					at = ps.resultAt(bi, qi, k)
					slot = int(slots[at])
				}
				ref := refs[slot]
				if e.refs[ref.id] != ref {
					continue // a Remove tombstone (a pruned pass never selects one)
				}
				score := match.PairScore(res[qi][at], ref.kps, kps, e.cfg.Match)
				rep.Ranked = append(rep.Ranked, match.SearchResult{RefID: ref.id, Score: score})
			}
		}
	}
	elapsed := e.dev.Synchronize() - start
	e.searches.Add(int64(Bq))

	br := BatchReport{Reports: reports, ElapsedUS: elapsed}
	for _, rep := range reports {
		rep.ElapsedUS = elapsed
		br.Compared += rep.Compared
		rep.Rank(e.cfg.Match, 0)
	}
	if elapsed > 0 {
		br.Throughput = float64(br.Compared) / (elapsed * 1e-6)
		for _, rep := range reports {
			rep.Speed = br.Throughput / float64(Bq)
		}
	}
	return br, nil
}

// stageQuery stages one query as panel slot i through that slot's own
// QueryScratch, zero-padding a short real query to QueryFeatures when pad is
// set. A nil qf stages a phantom query. The result aliases slot i's
// QueryScratch; it is valid until the next stageQuery of slot i.
func (e *Engine) stageQuery(i int, qf *blas.Matrix, pad bool) (*knn.Query, error) {
	if qf == nil {
		return knn.PhantomQuery(e.dev, e.cfg.QueryFeatures, e.cfg.Dim)
	}
	qs := &e.qscratch[i]
	if pad {
		qf = qs.Padded(qf, e.cfg.QueryFeatures)
	}
	return knn.NewQueryScratch(e.dev, qf, e.cfg.Precision, e.cfg.Scale, qs)
}

// freeQueries releases the staged panel's device memory.
func (e *Engine) freeQueries() {
	for _, q := range e.queries {
		q.Free()
	}
}

// Stats summarizes the engine state.
type Stats struct {
	References int
	Batches    int
	Cache      cache.Stats
	// CapacityImages is the total number of references the hybrid cache
	// can hold at the engine's footprint per reference.
	CapacityImages int64
	// BytesPerRef is the cache footprint of one reference image.
	BytesPerRef int64
	Searches    int
	WorkspaceGB float64
}

// Stats returns current occupancy and capacity figures.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	perRef := int64(e.cfg.RefFeatures) * int64(e.cfg.Dim) * int64(e.cfg.Precision.ElemBytes())
	if e.cfg.Algorithm != knn.RootSIFT {
		perRef += int64(e.cfg.RefFeatures) * 4 // norm vector
	}
	cs := e.hybrid.Stats()
	return Stats{
		References:     len(e.refs),
		Batches:        cs.GPUItems + cs.HostItems,
		Cache:          cs,
		CapacityImages: e.hybrid.CapacityImages(perRef),
		BytesPerRef:    perRef,
		Searches:       int(e.searches.Load()),
		WorkspaceGB:    float64(e.workspace) / (1 << 30),
	}
}
