package engine

import (
	"fmt"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/knn"
)

// Compact rebuilds the reference store without dead slots. Removed and
// updated references leave tombstoned slots behind in their immutable
// batches — searches skip them, but they still burn cache memory and GEMM
// work. Compact re-enrolls every live reference into fresh batches and
// drops the old ones, returning the number of dead slots reclaimed.
//
// Phantom batches carry no feature payload and cannot be rebuilt; engines
// holding phantom references return an error.
func (e *Engine) Compact() (reclaimed int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sealLocked(); err != nil {
		return 0, err
	}

	// Collect live features in enrollment (uid) order so batch locality is
	// preserved.
	type live struct {
		uid    int
		public int
		feats  *blas.Matrix
		codes  []binq.Code
	}
	var all []live
	dead := 0
	items := e.hybrid.Items()
	for _, it := range items {
		sb := it.Payload.(*sealedBatch)
		rb := sb.rb
		if rb.Phantom() {
			return 0, fmt.Errorf("engine: cannot compact phantom references")
		}
		for slot, uid := range rb.IDs {
			public, ok := e.uidToPublic[uid]
			if !ok {
				dead++
				continue
			}
			feats, codes := slotPayload(rb, slot)
			all = append(all, live{uid: uid, public: public, feats: feats, codes: codes})
		}
	}
	if dead == 0 {
		return 0, nil
	}

	// Drop every old batch, then rebuild.
	for _, it := range items {
		sb := it.Payload.(*sealedBatch)
		if sb.resident {
			sb.rb.Free()
			sb.resident = false
		}
		sb.rb.FreeCodes()
		e.hybrid.Remove(it.ID)
	}

	for start := 0; start < len(all); start += e.cfg.BatchSize {
		end := start + e.cfg.BatchSize
		if end > len(all) {
			end = len(all)
		}
		uids := make([]int, 0, end-start)
		mats := make([]*blas.Matrix, 0, end-start)
		for _, l := range all[start:end] {
			uids = append(uids, l.uid)
			mats = append(mats, l.feats)
		}
		rb, err := knn.NewRefBatch(e.dev, uids, mats, e.cfg.Precision,
			e.cfg.Scale, e.cfg.Algorithm != knn.RootSIFT)
		if err != nil {
			return 0, err
		}
		if e.cfg.PruneC > 0 {
			panel := make([]binq.Code, 0, (end-start)*e.cfg.RefFeatures)
			for _, l := range all[start:end] {
				panel = append(panel, l.codes...)
			}
			if err := rb.AttachCodes(panel, end-start); err != nil {
				rb.Free()
				return 0, err
			}
		}
		if err := e.commitBatchLocked(rb); err != nil {
			return 0, err
		}
	}
	return dead, nil
}
