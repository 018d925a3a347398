package engine

import (
	"fmt"
	"sort"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/knn"
	"texid/internal/sift"
)

// Export visits every live reference in enrollment order, passing its
// public id, feature matrix (widened from FP16 with the storage scale
// divided out, so it is in original descriptor units), keypoints (nil
// unless KeepKeypoints), and — when pruning is enabled — the reference's
// binary code panel slice, so a snapshot can persist the exact enrolled
// codes instead of re-deriving them from re-quantized features. It is the
// basis for snapshot persistence. Engines holding phantom references
// cannot be exported.
func (e *Engine) Export(visit func(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sealLocked(); err != nil {
		return err
	}
	type entry struct {
		uid    int
		public int
		feats  *blas.Matrix
		codes  []binq.Code
	}
	var all []entry
	for _, it := range e.hybrid.Items() {
		sb := it.Payload.(*sealedBatch)
		rb := sb.rb
		if rb.Phantom() {
			return fmt.Errorf("engine: cannot export phantom references")
		}
		for slot, uid := range rb.IDs {
			public, ok := e.uidToPublic[uid]
			if !ok {
				continue // tombstoned
			}
			feats, codes := slotPayload(rb, slot)
			all = append(all, entry{uid: uid, public: public, feats: feats, codes: codes})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].uid < all[j].uid })
	for _, en := range all {
		var kps []sift.Keypoint
		if meta := e.refs[en.public]; meta != nil {
			kps = meta.kps
		}
		if err := visit(en.public, en.feats, kps, en.codes); err != nil {
			return err
		}
	}
	return nil
}

// slotPayload copies one batch slot out for re-enrollment or persistence:
// its features in original descriptor units — FP16 batches widen back to
// float32 with the storage scale divided out, so re-enrollment re-applies
// it identically — and its enrolled codes (nil without pruning), carried
// verbatim because re-encoding from widened (quantized) features could flip
// bits that sit exactly on a threshold.
func slotPayload(rb *knn.RefBatch, slot int) (feats *blas.Matrix, codes []binq.Code) {
	if rb.F32 != nil {
		feats = rb.F32.Slice(slot*rb.M, (slot+1)*rb.M).Clone()
	} else {
		feats = rb.F16.Slice(slot*rb.M, (slot+1)*rb.M).Float32()
		if rb.Scale != 0 && rb.Scale != 1 {
			inv := 1 / rb.Scale
			for i := range feats.Data {
				feats.Data[i] *= inv
			}
		}
	}
	if panel := rb.Codes(); panel != nil {
		codes = append(codes, panel[slot*rb.M:(slot+1)*rb.M]...)
	}
	return feats, codes
}
