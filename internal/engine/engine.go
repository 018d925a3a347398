// Package engine implements the per-GPU texture search engine: it owns one
// simulated device, keeps reference feature matrices in the hybrid
// GPU/host cache in sealed batches (Sec. 5's batching + Sec. 6's hybrid
// cache), and answers one-to-many searches by scattering the cached batches
// across multiple CUDA streams whose host-to-device copies overlap with
// matching kernels (Sec. 6.2). It is the building block the distributed
// system replicates across 14 GPU containers (Sec. 8).
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/cache"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/match"
	"texid/internal/sift"
)

// Config configures a search engine.
type Config struct {
	// Spec is the simulated device model.
	Spec gpusim.DeviceSpec
	// BatchSize is the number of reference feature matrices per sealed
	// batch (the GEMM batching factor and the cache swap granularity).
	BatchSize int
	// Streams is the number of CUDA streams (= host CPU threads).
	Streams int
	// Precision and Scale select the feature storage format.
	Precision gpusim.Precision
	Scale     float32
	// Accum is the FP16 GEMM accumulator mode.
	Accum blas.AccumMode
	// Algorithm is the 2-NN variant (RootSIFT is the production path).
	Algorithm knn.Algorithm
	// RefFeatures (m) and QueryFeatures (n) are the asymmetric feature
	// budgets; Dim is the descriptor dimensionality.
	RefFeatures   int
	QueryFeatures int
	Dim           int
	// GPUCacheBytes is the device-memory budget for reference batches.
	// Zero derives it automatically from what remains after the runtime
	// overhead and per-stream workspaces.
	GPUCacheBytes int64
	// HostCacheBytes is the host-memory budget for the second cache level
	// (the paper reserves 64 GB per container).
	HostCacheBytes int64
	// PinnedHost uses pinned host memory for H2D streaming.
	PinnedHost bool
	// Match configures the post-processing decision pipeline. With
	// Match.Geometric set the engine keeps each reference's keypoints for
	// the RANSAC step. New rejects a MinMatches below 1 and, with
	// Geometric, a RANSACTol that is not finite and positive.
	Match match.Config
	// PruneC enables the binary Hamming prefilter: every search first scans
	// packed 128-bit codes of all references and only the top-PruneC
	// candidates go through the exact GEMM rerank. Zero disables pruning
	// (bitwise-identical to the unpruned engine). Requires the RootSIFT
	// algorithm and Dim <= binq.MaxDim.
	PruneC int
	// PruneProbes caps how many query descriptors are encoded as scan
	// probes (the first columns, which SIFT extraction orders by response).
	// Zero means the default of 64.
	PruneProbes int
}

// DefaultConfig returns the paper's production configuration on a P100:
// RootSIFT + FP16, batch 256, 8 streams, asymmetric 384/768 features.
func DefaultConfig() Config {
	return Config{
		Spec:           gpusim.TeslaP100(),
		BatchSize:      256,
		Streams:        8,
		Precision:      gpusim.FP16,
		Scale:          1, // RootSIFT features are unit-norm; no scaling needed
		Accum:          blas.AccumFP16,
		Algorithm:      knn.RootSIFT,
		RefFeatures:    384,
		QueryFeatures:  768,
		Dim:            sift.DescriptorDim,
		HostCacheBytes: 64 << 30,
		PinnedHost:     true,
		Match:          match.DefaultConfig(),
	}
}

// sealedBatch is one cache entry: a RefBatch plus, slot by slot, the record
// enrolled there. Whether the batch holds device memory is the cache item's
// Loc.
type sealedBatch struct {
	rb   *knn.RefBatch
	refs []*refMeta
}

// refMeta is the host-side record of one enrollment of a reference image.
// The id map is the only statement of liveness: a batch slot (or a pending
// entry) holding ref is live iff e.refs[ref.id] == ref. Remove deletes the
// entry, so its slot goes dead and stays in its batch until Compact; Update
// keeps the record and rewrites what it names in place. rb and slot say
// where commitBatchLocked placed the record (rb nil until its first seal;
// Compact re-places it), so that rewrite costs one reference and never
// walks the cache.
type refMeta struct {
	id   int
	kps  []sift.Keypoint
	rb   *knn.RefBatch
	slot int
}

// pendingRef is one enrolled but not yet sealed reference; liveLocked
// copies live slots back out in the same form. Non-nil codes are already
// encoded (snapshot restore, Compact); nil encodes at seal time.
type pendingRef struct {
	ref   *refMeta
	feats *blas.Matrix
	codes []binq.Code
}

// Engine is a single-GPU texture search engine. Methods are safe for
// concurrent use.
//
// Locking is two-level so that searches never hold the index write lock
// during compute (the GEMM/top-2 phase):
//
//   - mu (RWMutex) guards the index state: the hybrid cache layout, the
//     id map, and the pending (unsealed) enrollments. Searches
//     hold only the read lock while matching, so enrollment on one shard
//     no longer blocks searches on another through the cluster path;
//     Add/Remove/Update/Compact/Export take the write lock and therefore
//     wait for at most one in-flight batch pass.
//   - execMu serializes the execution resources that cannot be shared:
//     the stream set, the reusable scratch buffers, and the device-clock
//     interval measurement (start/end Synchronize must not interleave
//     between searches or the virtual latency attribution breaks).
//
// Lock order is execMu before mu; no path acquires execMu while holding
// mu. Searches cannot drop mu entirely during compute: batch payloads and
// the id map are read throughout scoring, and a concurrent Add could
// demote (free) a device-resident batch mid-match.
type Engine struct {
	cfg Config
	dev *gpusim.Device

	// mu owns hybrid, refs, nextBatchID, pending and thresh.
	mu          sync.RWMutex
	hybrid      *cache.Hybrid[sealedBatch]
	refs        map[int]*refMeta // id -> the record currently enrolled under it
	nextBatchID int
	pending     []pendingRef
	// thresh is the per-dimension binarization threshold vector, learned
	// from the first sealed batch (or restored from a snapshot) and fixed
	// for the life of the index so every enrolled code is comparable.
	thresh    binq.Thresholds
	workspace int64
	searches  atomic.Int64

	// execMu serializes one batch pass at a time over the streams and the
	// reusable host-side working sets: the match kernels' distance matrix
	// and top-2 slabs plus the query staging buffers. Threading these
	// through the search paths leaves a steady-state Search only its small
	// fixed allocations — the Report and its Ranked list, which escape to
	// the caller, the ratio-test survivors, the kernels' launch headers and
	// the final sort — which is what BENCH_BASELINE.json's
	// probe_engine_search_steady* rows count and gate at zero drift. It
	// owns streams, scratch, qscratch, queries, itemsBuf and prune.
	execMu   sync.Mutex
	streams  []*gpusim.Stream
	scratch  knn.Scratch
	qscratch []knn.QueryScratch // one per query-panel slot
	queries  []*knn.Query       // the staged panel of the pass in flight
	itemsBuf []*cache.Item[sealedBatch]
	prune    pruneScratch
}

// New creates an engine, allocating per-stream device workspace (the
// distance matrix plus staging buffers that Table 6 reports as "extra GPU
// memory").
func New(cfg Config) (*Engine, error) {
	if cfg.BatchSize <= 0 || cfg.Streams <= 0 {
		return nil, fmt.Errorf("engine: batch size %d and streams %d must be positive", cfg.BatchSize, cfg.Streams)
	}
	if cfg.RefFeatures <= 0 || cfg.QueryFeatures <= 0 || cfg.Dim <= 0 {
		return nil, fmt.Errorf("engine: feature shape %d/%d/%d must be positive", cfg.RefFeatures, cfg.QueryFeatures, cfg.Dim)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	// A NaN, infinite or negative scale would seal every FP16 feature as
	// NaN, ±Inf or its negation, and the index would answer wrongly while
	// reporting healthy.
	if !(cfg.Scale > 0) || math.IsInf(float64(cfg.Scale), 1) {
		return nil, fmt.Errorf("engine: Scale %g must be finite and positive (0 means 1)", cfg.Scale)
	}
	// A decision rule that accepts every best candidate, or a verifier that
	// drops every correspondence, answers wrongly while reporting healthy.
	if m := cfg.Match; m.MinMatches < 1 {
		return nil, fmt.Errorf("engine: Match.MinMatches %d must be at least 1", m.MinMatches)
	} else if m.Geometric && !(m.RANSACTol > 0 && !math.IsInf(m.RANSACTol, 1)) {
		return nil, fmt.Errorf("engine: Match.RANSACTol %g must be finite and positive with Match.Geometric", m.RANSACTol)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("engine: Spec.%w", err)
	}
	if cfg.PruneC > 0 {
		if cfg.Algorithm != knn.RootSIFT {
			return nil, fmt.Errorf("engine: candidate pruning requires the RootSIFT algorithm")
		}
		if cfg.Dim > binq.MaxDim {
			return nil, fmt.Errorf("engine: candidate pruning supports dim <= %d, got %d", binq.MaxDim, cfg.Dim)
		}
		if cfg.PruneProbes <= 0 {
			cfg.PruneProbes = 64
		}
	}
	dev := gpusim.NewDevice(cfg.Spec)

	// Per-stream workspace: the (B·m)×n distance matrix plus a staging
	// buffer for one in-flight reference chunk.
	perStream := knn.WorkspaceBytes(cfg.BatchSize, cfg.RefFeatures, cfg.QueryFeatures, cfg.Precision) +
		int64(cfg.BatchSize)*int64(cfg.RefFeatures)*int64(cfg.Dim)*int64(cfg.Precision.ElemBytes())
	workspace := perStream * int64(cfg.Streams)
	if err := dev.Alloc(workspace); err != nil {
		return nil, fmt.Errorf("engine: allocating stream workspace: %w", err)
	}

	gpuBudget := cfg.GPUCacheBytes
	if gpuBudget == 0 {
		gpuBudget = dev.FreeBytes() - (256 << 20) // safety margin for queries
		if cfg.PruneC > 0 {
			// Binary codes stay device-resident even for host-cached
			// batches (that is what makes the whole-index scan possible),
			// so the automatic feature-cache budget leaves a proportional
			// slice for them: 16 bytes/descriptor against the feature
			// footprint. Deployments holding far more host- than
			// GPU-resident references should set GPUCacheBytes explicitly.
			refB := int64(cfg.Dim) * int64(cfg.Precision.ElemBytes())
			gpuBudget = gpuBudget * refB / (refB + binq.Bytes*4)
		}
	}
	if gpuBudget <= 0 {
		dev.Free(workspace)
		return nil, fmt.Errorf("engine: no device memory left for the reference cache")
	}

	e := &Engine{
		cfg:       cfg,
		dev:       dev,
		refs:      make(map[int]*refMeta),
		workspace: workspace,
	}
	// Demotion releases the batch's device bytes; the payload stays in Go
	// memory, which doubles as the host copy.
	e.hybrid = cache.New(gpuBudget, cfg.HostCacheBytes, func(it *cache.Item[sealedBatch]) {
		it.Payload.rb.Free()
	})
	for i := 0; i < cfg.Streams; i++ {
		e.streams = append(e.streams, dev.NewStream())
	}
	return e, nil
}

// Device exposes the simulated device (profiling, clock).
func (e *Engine) Device() *gpusim.Device { return e.dev }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Add enrolls a reference image's features under the given id. Features
// must be Dim×RefFeatures. Keypoints may be nil unless geometric
// verification is enabled. Batches seal automatically when BatchSize
// references accumulate.
func (e *Engine) Add(id int, feats *blas.Matrix, kps []sift.Keypoint) error {
	return e.AddEncoded(id, feats, kps, nil)
}

// AddEncoded is Add with an optional pre-built binary code panel (one code
// per feature column), used by snapshot restore so persisted codes survive
// round-trips bit-for-bit instead of being re-derived from re-quantized
// features. A nil codes slice encodes at seal time from the engine's
// thresholds; non-nil requires pruning to be enabled.
func (e *Engine) AddEncoded(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addLocked(id, feats, kps, codes)
}

// ErrShape marks a feature matrix of the wrong shape, so callers can tell
// a bad record (the REST tier's 400) from a write that failed.
var ErrShape = errors.New("engine: bad feature shape")

// CheckShape reports, with an error wrapping ErrShape, whether feats has
// the Dim×RefFeatures shape every enrolled reference must have. Callers
// that replace a reference (Update here, the cluster's store-then-apply
// put) check it before they touch the old one.
func (e *Engine) CheckShape(feats *blas.Matrix) error {
	if feats.Rows != e.cfg.Dim || feats.Cols != e.cfg.RefFeatures {
		return fmt.Errorf("%w: features are %dx%d, want %dx%d",
			ErrShape, feats.Rows, feats.Cols, e.cfg.Dim, e.cfg.RefFeatures)
	}
	return nil
}

func (e *Engine) addLocked(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error {
	if _, dup := e.refs[id]; dup {
		return fmt.Errorf("engine: duplicate reference id %d", id)
	}
	if err := e.CheckShape(feats); err != nil {
		return err
	}
	if codes != nil {
		if e.cfg.PruneC <= 0 {
			return fmt.Errorf("engine: pre-encoded codes require pruning (PruneC > 0)")
		}
		if len(codes) != e.cfg.RefFeatures {
			return fmt.Errorf("engine: %d codes for %d features", len(codes), e.cfg.RefFeatures)
		}
	}
	ref := &refMeta{id: id}
	if e.cfg.Match.Geometric {
		// Only match.PairScore's RANSAC step reads reference keypoints.
		ref.kps = kps
	}
	e.refs[id] = ref
	e.pending = append(e.pending, pendingRef{ref: ref, feats: feats, codes: codes})
	if len(e.pending) >= e.cfg.BatchSize {
		return e.sealLocked()
	}
	return nil
}

// Thresholds returns a copy of the binarization threshold vector (nil until
// the first batch seals or SetThresholds restores one).
func (e *Engine) Thresholds() binq.Thresholds {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.thresh == nil {
		return nil
	}
	return append(binq.Thresholds(nil), e.thresh...)
}

// SetThresholds installs a restored threshold vector (snapshot load). Only
// legal on an empty index — codes already enrolled under different
// thresholds would stop being comparable.
func (e *Engine) SetThresholds(t binq.Thresholds) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.PruneC <= 0 {
		return fmt.Errorf("engine: thresholds require pruning (PruneC > 0)")
	}
	if len(t) != e.cfg.Dim {
		return fmt.Errorf("engine: %d thresholds for dim %d", len(t), e.cfg.Dim)
	}
	if len(e.refs) > 0 || len(e.pending) > 0 {
		return fmt.Errorf("engine: thresholds can only be set on an empty index")
	}
	e.thresh = append(binq.Thresholds(nil), t...)
	return nil
}

// AddPhantom enrolls count phantom references (dimensions only, no data)
// for paper-scale timing experiments. Public IDs are assigned sequentially
// from startID.
func (e *Engine) AddPhantom(startID, count int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for done := 0; done < count; {
		chunk := e.cfg.BatchSize
		if count-done < chunk {
			chunk = count - done
		}
		rb, err := knn.PhantomRefBatch(e.dev, chunk, e.cfg.RefFeatures, e.cfg.Dim,
			e.cfg.Precision, e.cfg.Algorithm != knn.RootSIFT)
		if err != nil {
			return err
		}
		refs := make([]*refMeta, chunk)
		for i := range refs {
			refs[i] = &refMeta{id: startID + done + i}
			e.refs[refs[i].id] = refs[i]
		}
		if e.cfg.PruneC > 0 {
			// Charge the device bytes of the (phantom) code panel so the
			// capacity experiments account for the prefilter's footprint.
			if err := rb.AttachCodes(nil, chunk); err != nil {
				rb.Free()
				return err
			}
		}
		if err := e.commitBatchLocked(rb, refs); err != nil {
			return err
		}
		done += chunk
	}
	return nil
}

// Flush seals any pending (not yet batch-sized) references so they become
// searchable.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealLocked()
}

// sealLocked turns the pending references into a device batch and inserts
// it into the hybrid cache.
func (e *Engine) sealLocked() error {
	n := len(e.pending)
	if n == 0 {
		return nil
	}
	// The kernel knows references by slot number; refs says who is in each.
	slots, mats, refs := make([]int, n), make([]*blas.Matrix, n), make([]*refMeta, n)
	for i, p := range e.pending {
		slots[i], mats[i], refs[i] = i, p.feats, p.ref
	}
	rb, err := knn.NewRefBatch(e.dev, slots, mats, e.cfg.Precision,
		e.cfg.Scale, e.cfg.Algorithm != knn.RootSIFT)
	if err != nil {
		return err
	}
	if e.cfg.PruneC > 0 {
		if e.thresh == nil {
			// Thresholds are learned once, from the first sealed batch,
			// then frozen: every later code must be comparable to every
			// earlier one.
			e.thresh = binq.LearnThresholds(mats)
		}
		panel := make([]binq.Code, 0, n*e.cfg.RefFeatures)
		for _, p := range e.pending {
			if p.codes != nil {
				panel = append(panel, p.codes...)
			} else {
				panel = e.thresh.Encode(p.feats, panel)
			}
		}
		if err := rb.AttachCodes(panel, n); err != nil {
			rb.Free()
			return err
		}
	}
	e.pending = nil
	return e.commitBatchLocked(rb, refs)
}

// commitBatchLocked inserts a built RefBatch and the records enrolled in
// its slots into the hybrid cache; when the cache refuses it, exactly those
// records are unenrolled.
func (e *Engine) commitBatchLocked(rb *knn.RefBatch, refs []*refMeta) error {
	if _, err := e.hybrid.Add(e.nextBatchID, rb.Bytes(), sealedBatch{rb: rb, refs: refs}); err != nil {
		rb.Free()
		rb.FreeCodes()
		for _, ref := range refs {
			if e.refs[ref.id] == ref {
				delete(e.refs, ref.id)
			}
		}
		return fmt.Errorf("engine: cache full: %w", err)
	}
	for slot, ref := range refs {
		ref.rb, ref.slot = rb, slot
	}
	e.nextBatchID++
	return nil
}

// Remove deletes a reference: its batch slot remains physically present
// as a tombstone until Compact, but the id map no longer names its record,
// so searches skip it. Remove is the only source of tombstones. Returns
// false for unknown ids.
func (e *Engine) Remove(id int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.refs[id]
	delete(e.refs, id)
	return ok
}

// Update replaces a reference's features in one critical section, so
// concurrent Updates of one id serialize and no search sees a half-written
// reference. A known id keeps its record and its place: a sealed slot is
// rewritten in place (features, norms, and codes under the frozen
// thresholds), a pending entry is replaced. Neither leaves a tombstone or
// seals a batch, so every answer equals that of an index that enrolled the
// new features at the id's first enrollment. An unknown id is enrolled as
// by Add. Mis-shaped features are rejected before anything is touched, and
// phantom references cannot be updated.
func (e *Engine) Update(id int, feats *blas.Matrix, kps []sift.Keypoint) error {
	if err := e.CheckShape(feats); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ref, ok := e.refs[id]
	if !ok {
		return e.addLocked(id, feats, kps, nil)
	}
	if ref.rb == nil {
		for i := range e.pending {
			if e.pending[i].ref == ref {
				e.pending[i] = pendingRef{ref: ref, feats: feats}
				break
			}
		}
	} else {
		if ref.rb.Phantom() {
			return fmt.Errorf("engine: cannot update phantom reference %d", id)
		}
		var codes []binq.Code
		if e.cfg.PruneC > 0 {
			codes = e.thresh.Encode(feats, make([]binq.Code, 0, e.cfg.RefFeatures))
		}
		if err := ref.rb.RewriteSlot(ref.slot, feats, codes); err != nil {
			return err
		}
	}
	if e.cfg.Match.Geometric {
		ref.kps = kps
	}
	return nil
}
