package texid

import (
	"math/rand"
	"net/http"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/sift"
)

// ClusterConfig configures a distributed deployment (Sec. 8: 14 GPU
// containers behind a REST API with Redis-role metadata storage).
type ClusterConfig struct {
	// Workers is the number of shard GPUs (14 in the paper).
	Workers int
	// Extractor configures SIFT (RootSIFT forced on).
	Extractor sift.Config
	// Engine is the per-worker engine configuration.
	Engine engine.Config
	// StoreAddr optionally points at a kvstore server (see
	// internal/kvstore or cmd/texsearchd -kvstore) for persistence.
	StoreAddr string
	// MinShards is the minimum shards that must answer a search before it
	// fails instead of degrading to a partial result (<= 0: any one).
	MinShards int
}

// DefaultClusterConfig returns the paper's 14-GPU deployment.
func DefaultClusterConfig() ClusterConfig {
	ext := sift.DefaultConfig()
	ext.RootSIFT = true
	return ClusterConfig{Workers: 14, Extractor: ext, Engine: engine.DefaultConfig()}
}

// ClusterSystem is a distributed texture identification system.
type ClusterSystem struct {
	cfg      ClusterConfig
	cl       *cluster.Cluster
	refCfg   sift.Config
	queryCfg sift.Config
}

// OpenCluster builds a distributed system from cfg.
func OpenCluster(cfg ClusterConfig) (*ClusterSystem, error) {
	cfg.Extractor.RootSIFT = true
	cl, err := cluster.New(cluster.Config{
		Workers:   cfg.Workers,
		Engine:    cfg.Engine,
		StoreAddr: cfg.StoreAddr,
		MinShards: cfg.MinShards,
	})
	if err != nil {
		return nil, err
	}
	refCfg, queryCfg := sift.ExtractAsymmetric(cfg.Extractor,
		cfg.Engine.RefFeatures, cfg.Engine.QueryFeatures)
	return &ClusterSystem{cfg: cfg, cl: cl, refCfg: refCfg, queryCfg: queryCfg}, nil
}

// Cluster exposes the underlying coordinator.
func (c *ClusterSystem) Cluster() *cluster.Cluster { return c.cl }

// Handler returns the REST API handler (mount it on any http.Server).
func (c *ClusterSystem) Handler() http.Handler { return c.cl.Handler() }

// EnrollImage extracts reference features and enrolls them on a shard.
func (c *ClusterSystem) EnrollImage(id int, im *Image) error {
	f := sift.Extract(im, c.refCfg)
	return c.cl.Add(id, f.Descriptors, f.Keypoints)
}

// SearchImage extracts query features and runs a distributed search.
func (c *ClusterSystem) SearchImage(im *Image) (*Result, error) {
	f := sift.Extract(im, c.queryCfg)
	rep, err := c.cl.Search(f.Descriptors, f.Keypoints)
	if err != nil {
		return nil, err
	}
	return clusterResult(rep), nil
}

// clusterResult converts a merged shard report to the public Result,
// carrying the graceful-degradation fields along.
func clusterResult(rep *cluster.Report) *Result {
	res := result(&rep.Report)
	res.Partial, res.ShardsAnswered, res.ShardsTotal = rep.Partial, rep.ShardsAnswered, rep.ShardsTotal
	return res
}

// SearchImages answers several queries in one distributed pass (each shard
// matches the whole batch with multi-query GEMMs).
func (c *ClusterSystem) SearchImages(imgs []*Image) ([]*Result, error) {
	feats := make([]*blas.Matrix, len(imgs))
	kps := make([][]sift.Keypoint, len(imgs))
	for i, f := range sift.ExtractBatch(imgs, c.queryCfg) {
		feats[i] = f.Descriptors
		kps[i] = f.Keypoints
	}
	reps, err := c.cl.SearchBatch(feats, kps)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(reps))
	for i, rep := range reps {
		out[i] = clusterResult(rep)
	}
	return out, nil
}

// Compact reclaims tombstoned slots on every shard.
func (c *ClusterSystem) Compact() (int, error) { return c.cl.Compact() }

// Remove deletes a reference from the kvstore and its shard and reports
// whether it was enrolled; a delete the store refused is an error and
// leaves the reference in place.
func (c *ClusterSystem) Remove(id int) (bool, error) { return c.cl.Remove(id) }

// Stats aggregates shard statistics.
func (c *ClusterSystem) Stats() cluster.Stats { return c.cl.Stats() }

// newRand builds a deterministic RNG for the public helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
