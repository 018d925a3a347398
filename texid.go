// Package texid is a large-scale texture identification system on
// simulated distributed GPUs — a full reproduction of "Exploring HW/SW
// Co-Optimizations for Accelerating Large-scale Texture Identification on
// Distributed GPUs" (Wang, Zhang, Li, Lin — ICPP 2021).
//
// A texture identification system answers two questions about product
// surfaces (the paper's application is tea-brick traceability):
//
//   - one-to-one verification: do these two images show the same texture?
//   - one-to-many search: which of up to millions of enrolled reference
//     textures does this query image show, if any?
//
// The pipeline is SIFT local features + 2-nearest-neighbors matching with
// a ratio test (Fig. 2 of the paper), accelerated by the paper's four
// HW/SW co-optimizations: a GEMM formulation of 2-NN with a single-pass
// top-2 scan, FP16 feature storage, reference-matrix batching (with
// RootSIFT, which eliminates the norm terms), and a hybrid GPU/host FIFO
// feature cache streamed through multiple CUDA streams. Since no CUDA
// hardware exists here, devices are provided by a functional-plus-timing
// GPU simulator: results are computed for real, while performance numbers
// come from a calibrated device model (see DESIGN.md).
//
// A System is the paper's Sec. 8 deployment in one process: a coordinator
// that spreads references round-robin over Config.Workers shard GPUs,
// scatters every search to all of them and merges the answers. One worker
// (DefaultConfig) is the single-GPU system; the paper serves from 14.
// Config{Engine, Workers} is the whole configuration: the extractor is
// always RootSIFT at the engine's feature budgets. Handler mounts the same
// System behind the REST API.
//
// Quick start:
//
//	sys, err := texid.Open(texid.DefaultConfig())
//	img := texid.GenerateTexture(42)             // or load your own
//	err = sys.EnrollImage(1001, img)
//	res, err := sys.SearchImage(capturedImage)
//	if res.Accepted { fmt.Println("matched", res.ID) }
package texid

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/sift"
	"texid/internal/texture"
)

// Re-exported building blocks, so downstream code can configure the system
// without reaching into internal packages.
type (
	// Image is a grayscale float32 image in [0,1].
	Image = texture.Image
	// Features is an extracted SIFT feature set.
	Features = sift.Features
	// Keypoint is one SIFT keypoint.
	Keypoint = sift.Keypoint
	// DeviceSpec describes a simulated GPU model.
	DeviceSpec = gpusim.DeviceSpec
	// EngineConfig is the single-GPU engine configuration.
	EngineConfig = engine.Config
	// ExtractorConfig is the SIFT extractor configuration.
	ExtractorConfig = sift.Config
)

// Device models.
var (
	// TeslaP100 is the paper's primary evaluation GPU.
	TeslaP100 = gpusim.TeslaP100
	// TeslaV100 is the secondary GPU; pass true to enable tensor cores.
	TeslaV100 = gpusim.TeslaV100
)

// Config configures a System.
//
// Features are always RootSIFT (the production pipeline depends on
// unit-norm features), extracted at the engine's asymmetric budgets:
// Engine.RefFeatures per reference, Engine.QueryFeatures per query.
type Config struct {
	// Engine configures each worker's device, batching, streams,
	// precision, cache budgets and match thresholds.
	Engine engine.Config
	// Workers is the number of shard GPUs (14 in the paper's Sec. 8
	// deployment).
	Workers int
}

// DefaultConfig is the paper's production configuration on one GPU:
// RootSIFT features (384 reference / 768 query, Sec. 7), FP16 storage,
// batch 256, 8 streams on a P100 with a 64 GB host cache.
func DefaultConfig() Config {
	return Config{Engine: engine.DefaultConfig(), Workers: 1}
}

// System is a texture identification system: a coordinator over
// Config.Workers simulated GPU engines plus a feature extractor.
type System struct {
	cfg      Config
	cl       *cluster.Cluster
	first    *engine.Engine
	refCfg   sift.Config
	queryCfg sift.Config
}

// Open builds a System from cfg.
func Open(cfg Config) (*System, error) {
	cl, err := cluster.New(cluster.Config{Workers: cfg.Workers, Engine: cfg.Engine})
	if err != nil {
		return nil, err
	}
	refCfg, queryCfg := sift.ExtractAsymmetric(sift.Config{RootSIFT: true},
		cfg.Engine.RefFeatures, cfg.Engine.QueryFeatures)
	return &System{cfg: cfg, cl: cl, first: cl.Workers()[0], refCfg: refCfg, queryCfg: queryCfg}, nil
}

// Engine exposes the first shard's engine (stats, device profile); at one
// worker it holds every reference.
func (s *System) Engine() *engine.Engine { return s.first }

// Handler returns the REST API handler over this System (mount it on any
// http.Server).
func (s *System) Handler() http.Handler { return s.cl.Handler() }

// ExtractReference runs the reference-side extractor (m strongest
// features).
func (s *System) ExtractReference(im *Image) *Features {
	return sift.Extract(im, s.refCfg)
}

// ExtractQuery runs the query-side extractor (n strongest features).
func (s *System) ExtractQuery(im *Image) *Features {
	return sift.Extract(im, s.queryCfg)
}

// EnrollImage extracts reference features from im and enrolls them under
// id.
func (s *System) EnrollImage(id int, im *Image) error {
	f := s.ExtractReference(im)
	return s.EnrollFeatures(id, f)
}

// EnrollImages enrolls a batch of reference images, extracting features in
// parallel across CPUs (extraction dominates enrollment cost; the paper
// computes reference features offline for the same reason). It stops at
// the first error, returning how many images were enrolled.
func (s *System) EnrollImages(images map[int]*Image) (int, error) {
	ids := make([]int, 0, len(images))
	for id := range images {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic enrollment (and batch layout)

	ims := make([]*Image, len(ids))
	for i, id := range ids {
		ims[i] = images[id]
	}
	feats := sift.ExtractBatch(ims, s.refCfg)

	for i, id := range ids {
		if err := s.EnrollFeatures(id, feats[i]); err != nil {
			return i, fmt.Errorf("texid: enrolling %d: %w", id, err)
		}
	}
	return len(ids), nil
}

// EnrollFeatures enrolls pre-extracted reference features on a shard. The
// feature count must equal the engine's RefFeatures budget; images with
// too few detected features are rejected (the paper requires ≥ the budget
// for accuracy).
func (s *System) EnrollFeatures(id int, f *Features) error {
	if err := s.checkTexture(f); err != nil {
		return err
	}
	return s.cl.Add(id, f.Descriptors, f.Keypoints)
}

// checkTexture is the enrolment rule: a reference needs the full
// RefFeatures budget of features.
func (s *System) checkTexture(f *Features) error {
	if f.Count() < s.cfg.Engine.RefFeatures {
		return fmt.Errorf("texid: only %d features extracted, need %d — not enough texture",
			f.Count(), s.cfg.Engine.RefFeatures)
	}
	return nil
}

// Result is the outcome of a search.
type Result struct {
	// ID is the best-matching reference (-1 when the index is empty) and
	// Accepted whether it cleared the decision threshold.
	ID       int
	Score    int
	Accepted bool
	// Compared counts reference images matched; ElapsedUS is the slowest
	// shard's simulated-device time and Speed the aggregate comparison
	// throughput.
	Compared  int
	ElapsedUS float64
	Speed     float64
	// Partial reports a degraded search: only ShardsAnswered of
	// ShardsTotal shards contributed.
	Partial        bool
	ShardsAnswered int
	ShardsTotal    int
}

// result converts a merged shard report to the public Result.
func result(rep *cluster.Report) *Result {
	return &Result{
		ID:             rep.BestID,
		Score:          rep.Score,
		Accepted:       rep.Accepted,
		Compared:       rep.Compared,
		ElapsedUS:      rep.ElapsedUS,
		Speed:          rep.Speed,
		Partial:        rep.Partial,
		ShardsAnswered: rep.ShardsAnswered,
		ShardsTotal:    rep.ShardsTotal,
	}
}

// SearchImage extracts query features from im and searches the index.
func (s *System) SearchImage(im *Image) (*Result, error) {
	return s.SearchFeatures(s.ExtractQuery(im))
}

// SearchFeatures searches every shard with pre-extracted query features.
func (s *System) SearchFeatures(f *Features) (*Result, error) {
	rep, err := s.cl.Search(f.Descriptors, f.Keypoints)
	if err != nil {
		return nil, err
	}
	return result(rep), nil
}

// VerifyImages answers one-to-one verification: do the two images contain
// the same texture? It matches them directly (no index involved).
func (s *System) VerifyImages(a, b *Image) (bool, int, error) {
	// Enroll a into a throwaway engine-free path: extract reference
	// features from a, query features from b, and match once.
	fa := s.ExtractReference(a)
	fb := s.ExtractQuery(b)
	return verifyPair(s.cfg.Engine, fa, fb)
}

// SearchImages answers several queries in one pass: each shard matches
// the whole batch with multi-query GEMMs. Higher aggregate throughput, but
// every query's latency becomes the batch's completion time (the Sec. 5.3
// trade-off).
func (s *System) SearchImages(imgs []*Image) ([]*Result, error) {
	feats := make([]*blas.Matrix, len(imgs))
	kps := make([][]sift.Keypoint, len(imgs))
	for i, f := range sift.ExtractBatch(imgs, s.queryCfg) {
		feats[i] = f.Descriptors
		kps[i] = f.Keypoints
	}
	reps, err := s.cl.SearchBatch(feats, kps)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(reps))
	for i, rep := range reps {
		out[i] = result(rep)
	}
	return out, nil
}

// Compact rebuilds every shard's reference store, reclaiming the slots
// left behind by Remove (Update rewrites its slot in place); it returns the
// number of slots reclaimed.
func (s *System) Compact() (int, error) { return s.cl.Compact() }

// Remove deletes a reference from its shard and reports whether it was
// enrolled.
func (s *System) Remove(id int) (bool, error) { return s.cl.Remove(id) }

// Update replaces a reference's features, or enrolls an id the System does
// not hold.
func (s *System) Update(id int, im *Image) error {
	f := s.ExtractReference(im)
	if err := s.checkTexture(f); err != nil {
		return err
	}
	return s.cl.Update(id, f.Descriptors, f.Keypoints)
}

// Stats returns occupancy and capacity, summed over the shards and per
// shard.
func (s *System) Stats() cluster.Stats { return s.cl.Stats() }

// ExtractWith runs the SIFT extractor with an explicit configuration,
// for callers that manage features themselves (e.g. to serialize them
// with the wire format before talking to a remote cluster).
func ExtractWith(im *Image, cfg ExtractorConfig) *Features {
	return sift.Extract(im, cfg)
}

// GenerateTexture renders the synthetic tea-brick-like reference texture
// for a seed (the stand-in for the paper's proprietary dataset).
func GenerateTexture(seed int64) *Image {
	return texture.Generate(seed, texture.DefaultGenParams())
}

// CaptureQuery simulates re-photographing a reference texture: a random
// viewpoint/illumination/noise perturbation at the given difficulty in
// [0, 1], deterministic in seed.
func CaptureQuery(ref *Image, seed int64, difficulty float64) *Image {
	rng := newRand(seed)
	p := texture.RandomPerturbation(rng, difficulty)
	return p.Apply(ref)
}

// verifyPair matches one reference feature set against one query set on a
// throwaway single-batch engine and applies the decision rule.
func verifyPair(cfg engine.Config, ref, query *Features) (bool, int, error) {
	cfg.BatchSize = 1
	cfg.Streams = 1
	e, err := engine.New(cfg)
	if err != nil {
		return false, 0, err
	}
	if ref.Count() < cfg.RefFeatures || query.Count() == 0 {
		return false, 0, fmt.Errorf("texid: not enough features (%d ref, %d query)", ref.Count(), query.Count())
	}
	if err := e.Add(0, trimFeatures(ref, cfg.RefFeatures), ref.Keypoints); err != nil {
		return false, 0, err
	}
	rep, err := e.Search(query.Descriptors, query.Keypoints)
	if err != nil {
		return false, 0, err
	}
	return rep.Accepted && rep.BestID == 0, rep.Score, nil
}

// trimFeatures returns the first m descriptor columns (features are
// already response-ranked by the extractor).
func trimFeatures(f *Features, m int) *blas.Matrix {
	if f.Descriptors.Cols == m {
		return f.Descriptors
	}
	return f.Descriptors.Slice(0, m).Clone()
}

// newRand builds a deterministic RNG for the public helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
