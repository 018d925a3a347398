package engine

import (
	"fmt"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/knn"
	"texid/internal/sift"
)

// liveLocked seals the pending references and copies every live slot out of
// the sealed batches — the one walk behind Export and Compact — also
// counting the dead slots it skipped. The result is in enrollment order
// without sorting: batches seal and queue in pending order, and Compact
// re-feeds survivors in it. Phantom batches carry no payload to copy, so an
// engine holding any refuses.
func (e *Engine) liveLocked() (live []pendingRef, dead int, err error) {
	if err := e.sealLocked(); err != nil {
		return nil, 0, err
	}
	for _, it := range e.hybrid.Items() {
		sb := it.Payload
		if sb.rb.Phantom() {
			return nil, 0, fmt.Errorf("engine: cannot export or compact phantom references")
		}
		for slot, ref := range sb.refs {
			if e.refs[ref.id] != ref {
				dead++
				continue
			}
			feats, codes := slotPayload(sb.rb, slot)
			live = append(live, pendingRef{ref: ref, feats: feats, codes: codes})
		}
	}
	return live, dead, nil
}

// Export visits every live reference in enrollment order, passing its
// id, feature matrix (widened from FP16 with the storage scale
// divided out, so it is in original descriptor units), keypoints (nil
// unless Match.Geometric keeps them), and — when pruning is enabled — the
// reference's binary code panel slice, so a snapshot can persist the exact enrolled
// codes instead of re-deriving them from re-quantized features. It is the
// basis for snapshot persistence. Engines holding phantom references
// cannot be exported.
func (e *Engine) Export(visit func(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	live, _, err := e.liveLocked()
	if err != nil {
		return err
	}
	for _, l := range live {
		if err := visit(l.ref.id, l.feats, l.ref.kps, l.codes); err != nil {
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
