package engine

import (
	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/cache"
)

// Candidate pruning (Config.PruneC > 0) puts a prefilter stage in front of
// the search pass:
//
//  1. Scan: each query's strongest descriptors are binarized with the
//     engine's learned thresholds and XOR/popcount-compared against the
//     always-resident 128-bit code panel of every reference — including
//     host-demoted batches, whose codes never leave the device. Each
//     image's score is the sum over probes of the minimum Hamming distance
//     to any of its codes.
//  2. Select: per query, the top-C live images (deterministic ties: lower
//     scan score, then lower global slot). A tombstoned slot takes no
//     place, so a removed reference cannot crowd a live one out.
//
// The pass then matches, per batch, only the union of its queries'
// candidates (batchSlots), through the same exact GEMM + fused top-2 kernel
// whose outputs are bitwise identical to the whole-batch match for the
// selected slots; the kernel computes a (slot, query) cell only where that
// query picked that slot (needed).
//
// Phantom scans (phantom queries, or phantom-enrolled batches, which have
// no code data) charge the same simulated kernel time and deterministically
// select the first C global slots.

// pruneScratch is the reusable working set of the pruned search path,
// owned by the engine alongside knn.Scratch, under execMu.
type pruneScratch struct {
	scanner  binq.Scanner
	qcodes   []binq.Code // encoded probes, all queries concatenated
	probeOff []int       // per-query probe offsets (len Bq+1)
	scores   []uint32    // scan scores, [qi*total+g]
	dead     []bool      // per global slot: a tombstone, which selection skips
	sel      binq.TopC
	cand     []int32 // per-query candidate lists (ascending), concatenated
	candOff  []int   // per-query offsets into cand (len Bq+1)
	cursor   []int   // per-query walk position in cand
	segLo    []int   // per-query start of the current batch's segment (it ends at cursor)
	slots    []int32 // current batch's (union) candidate slots, ascending
	slotIdx  []int32 // batch slot -> position in slots
	need     []bool  // [position in slots][query]: the query picked that slot
	mark     []bool  // all false between batches: batchSlots clears what it set
	base     []int   // per-batch global slot offset
}

// grown returns s resized to n elements, reallocating (zeroed) only when its
// capacity is short; surviving contents are whatever the last use left.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// layout records the per-batch global slot offsets and total image count,
// and reports whether any batch lacks code data (forcing a phantom scan).
func (ps *pruneScratch) layout(items []*cache.Item[sealedBatch]) (total int, phantomScan bool) {
	ps.base = ps.base[:0]
	for _, it := range items {
		rb := it.Payload.rb
		ps.base = append(ps.base, total)
		total += rb.Count()
		if rb.Codes() == nil {
			phantomScan = true
		}
	}
	return total, phantomScan
}

// encodeProbes binarizes the first min(limit, mat.Cols) columns of mat
// (SIFT orders descriptors by response, so these are the strongest),
// appending onto ps.qcodes.
func (ps *pruneScratch) encodeProbes(t binq.Thresholds, mat *blas.Matrix, limit int) {
	view := blas.Matrix{Rows: mat.Rows, Cols: min(limit, mat.Cols), Stride: mat.Stride, Data: mat.Data}
	ps.qcodes = t.Encode(&view, ps.qcodes)
}

// selectTopC fills ps.cand (from offset len(ps.cand)) with the C best live
// global slots of scores: ascending slot order, ties broken toward lower
// slots — the determinism contract of the prefilter.
func (ps *pruneScratch) selectTopC(scores []uint32, c int) {
	ps.sel.Reset(c)
	for g, s := range scores {
		if !ps.dead[g] {
			ps.sel.Offer(int32(g), s)
		}
	}
	ps.cand = ps.sel.AppendSorted(ps.cand)
}

// firstC appends slots 0..min(c,total)-1 — the phantom-scan selection.
func (ps *pruneScratch) firstC(c, total int) {
	for g := 0; g < min(c, total); g++ {
		ps.cand = append(ps.cand, int32(g))
	}
}

// prefilter runs the scan and per-query selection for a query panel and
// returns the number of images scanned. One scan op per batch covers every
// query's probe set; demoted batches need no transfer. Called with execMu
// held and mu read-locked, inside the pass's Synchronize() pair.
func (e *Engine) prefilter(queryFeats []*blas.Matrix, phantom bool, items []*cache.Item[sealedBatch]) int {
	ps := &e.prune
	Bq := len(queryFeats)
	total, phantomScan := ps.layout(items)
	phantomScan = phantomScan || phantom
	if total == 0 {
		return 0
	}
	ps.probeOff, ps.candOff = grown(ps.probeOff, Bq+1), grown(ps.candOff, Bq+1)
	ps.cursor, ps.segLo = grown(ps.cursor, Bq), grown(ps.segLo, Bq)

	ps.qcodes = ps.qcodes[:0]
	probes := Bq * e.cfg.PruneProbes
	var scores []uint32
	if !phantomScan {
		for qi, qf := range queryFeats {
			ps.probeOff[qi] = len(ps.qcodes)
			ps.encodeProbes(e.thresh, qf, e.cfg.PruneProbes)
		}
		ps.probeOff[Bq] = len(ps.qcodes)
		probes = len(ps.qcodes)
		ps.scores = grown(ps.scores, Bq*total)
		scores = ps.scores
		ps.dead = grown(ps.dead, total)
		for bi, it := range items {
			for s, ref := range it.Payload.refs {
				ps.dead[ps.base[bi]+s] = e.refs[ref.id] != ref
			}
		}
	}
	for bi, it := range items {
		rb := it.Payload.rb
		count, lo := rb.Count(), ps.base[bi]
		if !phantomScan {
			for qi := 0; qi < Bq; qi++ {
				ps.scanner.Scan(rb.Codes(), rb.M,
					ps.qcodes[ps.probeOff[qi]:ps.probeOff[qi+1]],
					scores[qi*total+lo:qi*total+lo+count])
			}
		}
		e.streams[bi%len(e.streams)].BinaryScan(count*rb.M, probes, binq.Words)
	}

	// Per-query selection into the concatenated candidate list.
	ps.cand = ps.cand[:0]
	for qi := 0; qi < Bq; qi++ {
		ps.candOff[qi] = len(ps.cand)
		if phantomScan {
			ps.firstC(e.cfg.PruneC, total)
		} else {
			ps.selectTopC(scores[qi*total:(qi+1)*total], e.cfg.PruneC)
		}
		ps.cursor[qi] = ps.candOff[qi]
	}
	ps.candOff[Bq] = len(ps.cand)
	return total
}

// batchSlots walks every query's candidate cursor through batch bi (count
// images) and returns the ascending union of their candidates as batch
// slots — empty when no query selected anything here. Batches must be
// visited in order. Afterwards picked/resultAt describe each query's own
// candidates within the union.
func (ps *pruneScratch) batchSlots(bi, count int) []int32 {
	base := ps.base[bi]
	ps.mark, ps.slotIdx = grown(ps.mark, count), grown(ps.slotIdx, count)
	ps.slots = ps.slots[:0]
	any := false
	for qi := range ps.cursor {
		ps.segLo[qi] = ps.cursor[qi]
		for ps.cursor[qi] < ps.candOff[qi+1] && int(ps.cand[ps.cursor[qi]]) < base+count {
			ps.mark[int(ps.cand[ps.cursor[qi]])-base] = true
			ps.cursor[qi]++
			any = true
		}
	}
	if !any {
		return ps.slots
	}
	for s := 0; s < count; s++ {
		if ps.mark[s] {
			ps.slotIdx[s] = int32(len(ps.slots))
			ps.slots = append(ps.slots, int32(s))
			ps.mark[s] = false
		}
	}
	return ps.slots
}

// needed returns the current batch's [position in slots][query] mask of the
// results the pass reads, each query's own candidates, or nil for a lone
// query, which reads every slot of its union. Call it after batchSlots.
func (ps *pruneScratch) needed(bi int) []bool {
	Bq := len(ps.cursor)
	if Bq == 1 {
		return nil
	}
	ps.need = grown(ps.need, len(ps.slots)*Bq)
	clear(ps.need)
	for qi := range Bq {
		for k := range ps.picked(qi) {
			ps.need[ps.resultAt(bi, qi, k)*Bq+qi] = true
		}
	}
	return ps.need
}

// picked is how many of the current batch's slots are query qi's candidates.
func (ps *pruneScratch) picked(qi int) int { return ps.cursor[qi] - ps.segLo[qi] }

// resultAt maps query qi's k-th candidate in batch bi to its position in
// the batch's slot set (and so in the kernel's results).
func (ps *pruneScratch) resultAt(bi, qi, k int) int {
	return int(ps.slotIdx[int(ps.cand[ps.segLo[qi]+k])-ps.base[bi]])
}
