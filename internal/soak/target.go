package soak

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/serve"
	"texid/internal/wire"
)

// FixtureConfig shapes the in-process soak fixtures. The defaults are the
// small functional FP32 engine used throughout the serving tests: real
// GEMM + 2-NN matching on tiny dimensions, so a soak exercises the full
// hot path (admission, scatter, match, merge) at CI-friendly cost.
type FixtureConfig struct {
	// Refs is the steady reference population per fixture.
	Refs int
	// Queries is the size of the precomputed query pool.
	Queries int
	// ChurnPool is the number of reference ids the churn writer cycles
	// Updates over (bounded, so churn never grows the population).
	ChurnPool int
	// CompactEvery triggers an index compaction after this many churn
	// writes (Compact's write lock under load; Updates leave no tombstones,
	// so it reclaims nothing). 0 disables.
	CompactEvery int
	// Seed fixes the generated features.
	Seed int64
	// MaxBatch/WindowUS configure the admission layer.
	MaxBatch int
	WindowUS int
}

// DefaultFixture returns the standard soak fixture shape.
func DefaultFixture() FixtureConfig {
	return FixtureConfig{
		Refs:         16,
		Queries:      64,
		ChurnPool:    8,
		CompactEvery: 256,
		Seed:         1,
		MaxBatch:     16,
		WindowUS:     200,
	}
}

// TinyEngineConfig is the tiny functional FP32 engine every in-process
// measurement fixture runs on — the soak targets, the sim-clock soak, the
// allocation probes and the serving identity check (mirrors the cluster
// test fixture).
func TinyEngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.BatchSize = 4
	cfg.Streams = 2
	cfg.Precision = gpusim.FP32
	cfg.Algorithm = knn.RootSIFT
	cfg.RefFeatures = 24
	cfg.QueryFeatures = 32
	cfg.Dim = 16
	cfg.HostCacheBytes = 1 << 30
	cfg.Match.MinMatches = 10
	cfg.Match.EdgeMargin = 0
	return cfg
}

// UnitCols returns a d×n matrix of L2-normalized random columns (stand-in
// RootSIFT descriptors).
func UnitCols(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		var s float64
		for i := range col {
			col[i] = rng.Float32()
			s += float64(col[i]) * float64(col[i])
		}
		f := float32(1 / math.Sqrt(s))
		for i := range col {
			col[i] *= f
		}
	}
	return m
}

// Perturb returns an n-column query whose first columns are noisy copies
// of ref (so searches find a real match, exercising full ranking).
func Perturb(rng *rand.Rand, ref *blas.Matrix, n int) *blas.Matrix {
	q := blas.NewMatrix(ref.Rows, n)
	for j := 0; j < n; j++ {
		if j < ref.Cols {
			copy(q.Col(j), ref.Col(j))
			col := q.Col(j)
			var s float64
			for i := range col {
				col[i] += (rng.Float32()*2 - 1) * 0.02
				if col[i] < 0 {
					col[i] = 0
				}
				s += float64(col[i]) * float64(col[i])
			}
			f := float32(1 / math.Sqrt(s))
			for i := range col {
				col[i] *= f
			}
		} else {
			copy(q.Col(j), UnitCols(rng, ref.Rows, 1).Col(0))
		}
	}
	return q
}

// fixtureData is the shared precomputed pool: reference features, query
// features, and replacement features for churn updates.
type fixtureData struct {
	refs    []*blas.Matrix
	queries []*blas.Matrix
	churn   []*blas.Matrix
	// churnIDs are the reference ids the writer cycles over (a suffix of
	// the enrolled population).
	churnIDs []int
}

// Features returns the reference and query pools the fixtures enroll and
// search, for measurements that build their own engine over the same data.
func Features(fc FixtureConfig) (refs, queries []*blas.Matrix) {
	d := buildFixtureData(fc)
	return d.refs, d.queries
}

func buildFixtureData(fc FixtureConfig) *fixtureData {
	rng := rand.New(rand.NewSource(fc.Seed))
	d := &fixtureData{
		refs:    make([]*blas.Matrix, fc.Refs),
		queries: make([]*blas.Matrix, fc.Queries),
		churn:   make([]*blas.Matrix, fc.ChurnPool*2),
	}
	for i := range d.refs {
		d.refs[i] = UnitCols(rng, 16, 24)
	}
	for i := range d.queries {
		// Queries target the non-churned prefix so read results stay
		// meaningful while the churn suffix is rewritten underneath them.
		stable := fc.Refs - fc.ChurnPool
		if stable < 1 {
			stable = 1
		}
		d.queries[i] = Perturb(rng, d.refs[i%stable], 32)
	}
	for i := range d.churn {
		d.churn[i] = UnitCols(rng, 16, 24)
	}
	for i := 0; i < fc.ChurnPool && i < fc.Refs; i++ {
		d.churnIDs = append(d.churnIDs, fc.Refs-fc.ChurnPool+i)
	}
	return d
}

// churner implements bounded enrollment churn over any update/compact
// pair: each write Updates one pooled id with fresh features, and every
// CompactEvery writes one (single) caller also compacts the index, so the
// run keeps exercising Compact's write lock beside the reads.
type churner struct {
	data         *fixtureData
	update       func(id int, feats *blas.Matrix) error
	compact      func() error
	compactEvery uint64

	writes    atomic.Uint64
	compactMu sync.Mutex
}

func (ch *churner) enroll(k uint64) error {
	if len(ch.data.churnIDs) == 0 {
		return nil
	}
	id := ch.data.churnIDs[k%uint64(len(ch.data.churnIDs))]
	feats := ch.data.churn[k%uint64(len(ch.data.churn))]
	if err := ch.update(id, feats); err != nil {
		return err
	}
	if ch.compactEvery > 0 && ch.writes.Add(1)%ch.compactEvery == 0 {
		// One compactor at a time; a concurrent writer skips rather than
		// queueing up behind the index write lock.
		if ch.compactMu.TryLock() {
			defer ch.compactMu.Unlock()
			return ch.compact()
		}
	}
	return nil
}

// ClusterTarget soaks an in-process multi-shard cluster through the
// coordinator's coalescing path (scatter-gather + merge under load).
type ClusterTarget struct {
	c    *cluster.Cluster
	data *fixtureData
	ch   churner
}

// NewClusterTarget builds a workers-shard in-process cluster fixture.
func NewClusterTarget(workers int, fc FixtureConfig) (*ClusterTarget, error) {
	if workers < 1 {
		workers = 1
	}
	c, err := cluster.New(cluster.Config{
		Workers: workers,
		Engine:  TinyEngineConfig(),
		Serve:   serve.Options{MaxBatch: fc.MaxBatch, Window: time.Duration(fc.WindowUS) * time.Microsecond},
	})
	if err != nil {
		return nil, err
	}
	data := buildFixtureData(fc)
	for i, f := range data.refs {
		if err := c.Add(i, f, nil); err != nil {
			return nil, err
		}
	}
	t := &ClusterTarget{c: c, data: data}
	t.ch = churner{
		data:         data,
		update:       func(id int, feats *blas.Matrix) error { return c.Update(id, feats, nil) },
		compact:      func() error { _, err := c.Compact(); return err },
		compactEvery: uint64(fc.CompactEvery),
	}
	return t, nil
}

// Search implements Target.
func (t *ClusterTarget) Search(k uint64) error {
	q := t.data.queries[k%uint64(len(t.data.queries))]
	rep, err := t.c.SearchCoalesced(q, nil)
	if err != nil {
		return err
	}
	if rep == nil {
		return fmt.Errorf("soak: nil report")
	}
	return nil
}

// Enroll implements Target.
func (t *ClusterTarget) Enroll(k uint64) error { return t.ch.enroll(k) }

// Close implements Target.
func (t *ClusterTarget) Close() error { return t.c.Close() }

// Cluster exposes the underlying cluster (for metrics audits in tests).
func (t *ClusterTarget) Cluster() *cluster.Cluster { return t.c }

// HTTPTarget soaks a live texsearchd over its REST API.
type HTTPTarget struct {
	api  *cluster.Client
	data *fixtureData
	recs []*wire.FeatureRecord // query records, pre-encoded shapes
	ch   churner
}

// NewHTTPTarget points the soak at a running daemon. It enrolls the
// fixture references (ids 0..Refs-1) before returning, so point it at a
// scratch instance, not a production index.
func NewHTTPTarget(baseURL string, fc FixtureConfig) (*HTTPTarget, error) {
	api := cluster.NewClient(baseURL)
	if err := api.Health(); err != nil {
		return nil, fmt.Errorf("soak: daemon %s not healthy: %w", baseURL, err)
	}
	data := buildFixtureData(fc)
	for i, f := range data.refs {
		rec := &wire.FeatureRecord{ID: int64(i), Precision: gpusim.FP32, Scale: 1, Features: f}
		if err := api.Add(rec); err != nil {
			return nil, fmt.Errorf("soak: enroll %d: %w", i, err)
		}
	}
	t := &HTTPTarget{api: api, data: data}
	t.recs = make([]*wire.FeatureRecord, len(data.queries))
	for i, q := range data.queries {
		t.recs[i] = &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: q}
	}
	t.ch = churner{
		data: data,
		update: func(id int, feats *blas.Matrix) error {
			return api.Update(id, &wire.FeatureRecord{ID: int64(id), Precision: gpusim.FP32, Scale: 1, Features: feats})
		},
		compact:      func() error { _, err := api.Compact(); return err },
		compactEvery: uint64(fc.CompactEvery),
	}
	return t, nil
}

// Search implements Target.
func (t *HTTPTarget) Search(k uint64) error {
	rec := t.recs[k%uint64(len(t.recs))]
	_, err := t.api.Search(rec)
	return err
}

// Enroll implements Target.
func (t *HTTPTarget) Enroll(k uint64) error { return t.ch.enroll(k) }

// Close implements Target.
func (t *HTTPTarget) Close() error { return nil }
