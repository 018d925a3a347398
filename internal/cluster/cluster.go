// Package cluster implements the distributed texture search system of
// Sec. 8: N shard workers (14 GPU containers in the paper, each owning one
// simulated GPU engine with a 76 GB hybrid cache), a coordinator that
// scatters every query to all shards and merges the ranked results, an
// optional kvstore (Redis-role) persistence layer for serialized feature
// records, and a RESTful HTTP API for add/delete/update/search.
//
// Coordinator→worker calls go through a fault-tolerant transport seam:
// per-call deadlines, bounded retries with deterministic jittered backoff,
// and a per-worker health state machine
// (healthy → suspect → dead → probing) that routes around dead shards.
// Searches degrade gracefully — surviving shards still answer, with the
// merged Report flagged Partial — and the whole layer is driven by virtual
// time only, so chaos schedules (internal/faultsim) replay bit-identically.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/faultsim"
	"texid/internal/kvstore"
	"texid/internal/metrics"
	"texid/internal/serve"
	"texid/internal/sift"
	"texid/internal/wire"
)

// storeTimeout bounds kvstore round-trips so a hung metadata store cannot
// wedge enrollment (wall-clock: the kvstore is real TCP, not simulated).
const storeTimeout = 5 * time.Second

// Config configures a cluster.
type Config struct {
	// Workers is the number of shard workers (GPU containers).
	Workers int
	// Engine is the per-worker engine configuration.
	Engine engine.Config
	// StoreAddr, when non-empty, connects the coordinator to a kvstore
	// server where every enrolled record is persisted (key "tex:<id>").
	StoreAddr string
	// MinShards is the minimum number of shards that must answer before a
	// search degrades to a partial result; with fewer survivors the search
	// fails outright. <= 0 means 1 (any survivor yields an answer).
	MinShards int
	// Serve configures the micro-batching admission layer in front of the
	// coordinator: concurrent single-query searches are coalesced into
	// batched scatter passes (one multi-query GEMM per reference batch on
	// every worker). MaxBatch <= 1 disables coalescing; Window bounds how
	// long the first query of a batch waits (wall clock) for co-travellers.
	Serve serve.Options

	// fault, when non-nil, runs every coordinator→worker call through the
	// given deterministic fault injector: the chaos tests' seam, nil in
	// serving.
	fault *faultsim.Injector
}

// workerName returns the stable peer name fault schedules key on.
func workerName(i int) string { return fmt.Sprintf("worker-%d", i) }

// Cluster is the coordinator plus its shard workers.
type Cluster struct {
	cfg       Config
	minShards int
	workers   []*worker
	store     *kvstore.Client
	batcher   *serve.Batcher[serve.Query, serve.Result[*Report]]

	// mu owns shards and next, and is held by every mutation from the
	// shard-map lookup to the shard-map write. Order: mu before any
	// engine's mu; nothing holding an engine lock takes mu.
	mu     sync.Mutex
	shards map[int]int // texture id -> worker index
	next   int         // round-robin cursor

	// Service metrics, exposed at /metrics.
	reg              *metrics.Registry
	mSearches        *metrics.Counter
	mComparisons     *metrics.Counter
	mAPIRequests     *metrics.Counter
	mAPIErrors       *metrics.Counter
	mSearchLatency   *metrics.Histogram
	mWorkerRetries   *metrics.Counter
	mWorkerFailures  *metrics.Counter
	mPartialSearches *metrics.Counter
	mBatchSize       *metrics.Histogram
	mWallLatency     *metrics.Histogram
}

// New builds the cluster, creating one engine per worker.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", cfg.Workers)
	}
	c := &Cluster{
		cfg:       cfg,
		minShards: cfg.MinShards,
		shards:    make(map[int]int),
		reg:       metrics.NewRegistry(),
	}
	if c.minShards <= 0 {
		c.minShards = 1
	}
	if c.minShards > cfg.Workers {
		return nil, fmt.Errorf("cluster: MinShards %d exceeds worker count %d", c.minShards, cfg.Workers)
	}
	c.mSearches = c.reg.Counter("texid_searches_total", "one-to-many searches served")
	c.mComparisons = c.reg.Counter("texid_comparisons_total", "reference comparisons performed")
	c.mAPIRequests = c.reg.Counter("texid_api_requests_total", "HTTP API requests")
	c.mAPIErrors = c.reg.Counter("texid_api_errors_total", "HTTP API error responses")
	c.mSearchLatency = c.reg.Histogram("texid_search_sim_latency_ms",
		"simulated GPU latency per search (ms)", metrics.DefBuckets)
	c.mWorkerRetries = c.reg.Counter("texid_worker_retries_total", "worker call retry attempts")
	c.mWorkerFailures = c.reg.Counter("texid_worker_call_failures_total", "failed worker call attempts")
	c.mPartialSearches = c.reg.Counter("texid_partial_searches_total", "searches answered from a strict subset of shards")
	c.mBatchSize = c.reg.Histogram("texid_serve_batch_size",
		"achieved coalesced batch size per scatter pass", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	c.mWallLatency = c.reg.Histogram("texid_search_wall_latency_ms",
		"wall-clock latency per search API request (ms)", metrics.DefBuckets)
	for i := 0; i < cfg.Workers; i++ {
		e, err := engine.New(cfg.Engine)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		w := &worker{idx: i, name: workerName(i), eng: e, health: newHealthFSM()}
		if cfg.fault != nil {
			w.peer = cfg.fault.Peer(w.name)
		}
		c.workers = append(c.workers, w)
	}
	if cfg.StoreAddr != "" {
		cl, err := kvstore.DialTimeout(cfg.StoreAddr, storeTimeout)
		if err != nil {
			return nil, fmt.Errorf("cluster: connecting to kvstore: %w", err)
		}
		if err := cl.Ping(); err != nil {
			return nil, fmt.Errorf("cluster: kvstore ping: %w", err)
		}
		c.store = cl
	}
	if cfg.Serve.MaxBatch > 1 {
		c.batcher = c.newBatcher(cfg.Serve)
	}
	return c, nil
}

// Close drains the admission layer and releases the kvstore connection
// (engines are garbage-collected).
func (c *Cluster) Close() error {
	if c.batcher != nil {
		c.batcher.Close()
	}
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}

// Workers returns the shard engines (for stats and benchmarks).
func (c *Cluster) Workers() []*engine.Engine {
	out := make([]*engine.Engine, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.eng
	}
	return out
}

// storeKey is the kvstore key of a texture record.
func storeKey(id int) string { return fmt.Sprintf("tex:%d", id) }

// persist writes a texture's record to the kvstore; a cluster without one
// persists nothing.
func (c *Cluster) persist(id int, feats *blas.Matrix, kps []sift.Keypoint) error {
	if c.store == nil {
		return nil
	}
	rec := &wire.FeatureRecord{
		ID:        int64(id),
		Precision: c.cfg.Engine.Precision,
		Scale:     c.cfg.Engine.Scale,
		Features:  feats,
		Keypoints: kps,
	}
	if err := c.store.Set(storeKey(id), wire.Encode(rec)); err != nil {
		return fmt.Errorf("cluster: persisting record %d: %w", id, err)
	}
	return nil
}

// putMode is what put does with an id the shard map already holds.
type putMode int

const (
	putAdd    putMode = iota // a known id is a duplicate
	putUpdate                // a known id is replaced in place on its shard
	putLoad                  // a known id is skipped; nothing is persisted
)

// errDuplicate marks an Add of an enrolled id (the REST tier's 409).
var errDuplicate = errors.New("duplicate texture id")

// put is the one write path behind Add, AddEncoded, Update and
// LoadFromStore. It holds
// c.mu from the shard-map lookup to the shard-map write, so writes serialise
// against writes (searches never take c.mu) and an id is on exactly the
// shard the map names, or on none. Order: shape check, kvstore write,
// engine, map — a rejected record or a failed store write leaves a known id
// serving its old features and a new one enrolled nowhere.
func (c *Cluster) put(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code, mode putMode) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	wi, known := c.shards[id]
	switch {
	case known && mode == putAdd:
		return fmt.Errorf("cluster: %w %d", errDuplicate, id)
	case known && mode == putLoad:
		return nil // already resident
	case !known:
		var err error
		if wi, err = c.pickWorkerLocked(); err != nil {
			return err
		}
	}
	w := c.workers[wi]
	if err := w.eng.CheckShape(feats); err != nil {
		return err
	}
	if mode != putLoad {
		if err := c.persist(id, feats, kps); err != nil {
			return err
		}
	}
	if known {
		return w.eng.Update(id, feats, kps)
	}
	if _, err := c.do(w, opAdd, func() (float64, error) { return 0, w.eng.AddEncoded(id, feats, kps, codes) }); err != nil {
		if mode != putLoad && c.store != nil {
			// Best-effort: a failed delete leaves an orphaned record that the
			// next enrollment under this id overwrites.
			_, _ = c.store.Del(storeKey(id))
		}
		return err
	}
	c.shards[id] = wi
	return nil
}

// Add enrolls a texture: references are spread round-robin so all shards
// stay equally loaded ("all the reference feature matrices are equally
// allocated to those 14 GPU containers"), routing around workers the
// failure detector has declared dead. Of several concurrent Adds of one id
// exactly one succeeds.
func (c *Cluster) Add(id int, feats *blas.Matrix, kps []sift.Keypoint) error {
	return c.AddEncoded(id, feats, kps, nil)
}

// AddEncoded is Add with a pre-built code panel (engine.AddEncoded), so a
// restored snapshot keeps its codes bit for bit. The kvstore record, when
// there is one, holds the features only.
func (c *Cluster) AddEncoded(id int, feats *blas.Matrix, kps []sift.Keypoint, codes []binq.Code) error {
	return c.put(id, feats, kps, codes, putAdd)
}

// AddPhantom enrolls count phantom references spread evenly across the
// workers (for paper-scale capacity/speed experiments).
func (c *Cluster) AddPhantom(count int) error {
	per := count / len(c.workers)
	extra := count % len(c.workers)
	start := 0
	for i, w := range c.workers {
		n := per
		if i < extra {
			n++
		}
		if n == 0 {
			continue
		}
		if err := w.eng.AddPhantom(start, n); err != nil {
			return fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		start += n
	}
	return nil
}

// Remove deletes a texture from the kvstore and its shard, under the
// mutation lock so it cannot interleave with a put of the same id, and
// reports whether the id was enrolled. Write-ahead like put: a delete the
// store refused is returned with the index untouched, or the next
// LoadFromStore would resurrect a texture the caller was told is gone.
func (c *Cluster) Remove(id int) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.shards[id]
	if !ok {
		return false, nil
	}
	if c.store != nil {
		if _, err := c.store.Del(storeKey(id)); err != nil {
			return false, fmt.Errorf("cluster: deleting record %d: %w", id, err)
		}
	}
	delete(c.shards, id)
	return c.workers[w].eng.Remove(id), nil
}

// Update replaces a texture's features on its shard, or enrolls an id the
// cluster does not hold.
func (c *Cluster) Update(id int, feats *blas.Matrix, kps []sift.Keypoint) error {
	return c.put(id, feats, kps, nil, putUpdate)
}

// Report is the merged outcome of a distributed search: the engine's
// answer over every answering shard's candidates, plus the shard fields.
// Compared and Scanned are the shards' sums, Ranked the top maxRanked
// candidates across them, ElapsedUS the slowest answering shard's
// coordinator-observed latency (shards run on separate GPUs in parallel;
// retries, backoff, and injected latency count) and Speed the aggregate
// comparison throughput.
type Report struct {
	engine.Report
	// PerWorker is per-shard observed latency, -1 for shards that did not
	// answer (for load-balance and degradation inspection).
	PerWorker []float64
	// Partial reports degraded service: at least one shard did not answer
	// and the results cover only the surviving shards' references.
	Partial bool
	// ShardsAnswered / ShardsTotal count the shards whose results are
	// merged into this report.
	ShardsAnswered int
	ShardsTotal    int
}

// maxRanked bounds a merged report's Ranked list.
const maxRanked = 32

// digestMagic and digestVersion stamp the digest encoding.
const (
	digestMagic   = 0x54585253 // "TXRS"
	digestVersion = 1
)

// AppendDigest appends the report's canonical bytes to b: magic, version,
// BestID and Score, a flags byte (Accepted, Partial), the shard counts,
// Compared, the bits of ElapsedUS and the (RefID, Score) pairs of Ranked,
// integers as varints. No maps and no floats beyond ElapsedUS's exact bit
// pattern, so two searches with the same logical answer append the same
// bytes; the chaos suite and the sim soak compare them across runs and
// GOMAXPROCS settings. The bytes are only ever compared, never decoded.
func (r *Report) AppendDigest(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, digestMagic)
	b = append(b, digestVersion)
	b = binary.AppendVarint(b, int64(r.BestID))
	b = binary.AppendVarint(b, int64(r.Score))
	flags := byte(0)
	if r.Accepted {
		flags |= 1
	}
	if r.Partial {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.ShardsAnswered))
	b = binary.AppendUvarint(b, uint64(r.ShardsTotal))
	b = binary.AppendVarint(b, int64(r.Compared))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.ElapsedUS))
	b = binary.AppendUvarint(b, uint64(len(r.Ranked)))
	for _, m := range r.Ranked {
		b = binary.AppendVarint(b, int64(m.RefID))
		b = binary.AppendVarint(b, int64(m.Score))
	}
	return b
}

// shardResult is one worker's contribution to a scatter-gather search: its
// report for each query. opSearch points reps at one, so a single search
// costs no slice of its own.
type shardResult struct {
	reps []*engine.Report
	one  [1]*engine.Report
	el   float64
	err  error
}

// Search scatters the query to every live shard in parallel and merges the
// results. A nil feats runs a phantom (timing-only) search. Shards that
// fail after retries are routed around: the merged report covers the
// survivors and is marked Partial. The search fails only when fewer than
// MinShards shards answer.
func (c *Cluster) Search(feats *blas.Matrix, kps []sift.Keypoint) (*Report, error) {
	reps, err := c.scatter(opSearch, []*blas.Matrix{feats}, [][]sift.Keypoint{kps})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// SearchBatch scatters a batch of queries to every live shard (each worker
// matches the whole query batch with one multi-query GEMM per reference
// batch) and merges per-query results, degrading to partial results like
// Search. All query matrices must have the engine's descriptor dimension;
// shorter feature counts are padded by the engine.
func (c *Cluster) SearchBatch(queryFeats []*blas.Matrix, queryKps [][]sift.Keypoint) ([]*Report, error) {
	return c.scatter(opSearchBatch, queryFeats, queryKps)
}

// scatter is the one scatter + merge behind Search and SearchBatch. op
// selects the worker call — Engine.Search of the only query, or
// Engine.SearchBatch — and is the name the fault injector keys its
// schedule on, so the two stay distinct operations on the wire.
func (c *Cluster) scatter(op string, queryFeats []*blas.Matrix, queryKps [][]sift.Keypoint) ([]*Report, error) {
	results := make([]shardResult, len(c.workers))
	var wg sync.WaitGroup
	for i, w := range c.workers {
		wg.Add(1)
		go func(r *shardResult, w *worker) {
			defer wg.Done()
			r.el, r.err = c.do(w, op, func() (float64, error) {
				if op == opSearch {
					rep, err := w.eng.Search(queryFeats[0], queryKps[0])
					if err != nil {
						return 0, err
					}
					r.one[0] = rep
					r.reps = r.one[:]
					return rep.ElapsedUS, nil
				}
				bat, err := w.eng.SearchBatch(queryFeats, queryKps)
				if err != nil {
					return 0, err
				}
				r.reps = bat.Reports
				return bat.ElapsedUS, nil
			})
		}(&results[i], w)
	}
	wg.Wait()

	answered := 0
	var firstErr error
	for i, r := range results {
		if r.err == nil {
			answered++
		} else if firstErr == nil {
			firstErr = fmt.Errorf("cluster: worker %d: %w", i, r.err)
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("cluster: no shard answered: %w", firstErr)
	}
	if answered < c.minShards {
		return nil, fmt.Errorf("cluster: only %d/%d shards answered, need %d: %w",
			answered, len(c.workers), c.minShards, firstErr)
	}
	partial := answered < len(c.workers)
	if partial {
		c.mPartialSearches.Inc()
	}

	out := make([]*Report, len(queryFeats))
	for qi := range queryFeats {
		merged := &Report{
			Report:         engine.Report{BestID: -1},
			ShardsAnswered: answered,
			ShardsTotal:    len(c.workers),
			Partial:        partial,
			PerWorker:      make([]float64, len(results)),
		}
		for wi := range results {
			r := &results[wi]
			if r.err != nil {
				merged.PerWorker[wi] = -1
				continue
			}
			rep := r.reps[qi]
			merged.Compared += rep.Compared
			merged.Scanned += rep.Scanned
			merged.PerWorker[wi] = r.el
			if r.el > merged.ElapsedUS {
				merged.ElapsedUS = r.el
			}
			merged.Ranked = append(merged.Ranked, rep.Ranked...)
		}
		if merged.ElapsedUS > 0 {
			merged.Speed = float64(merged.Compared) / (merged.ElapsedUS * 1e-6)
		}
		c.mSearches.Inc()
		c.mComparisons.Add(float64(merged.Compared))
		c.mSearchLatency.Observe(merged.ElapsedUS / 1000)
		merged.Rank(c.cfg.Engine.Match, maxRanked)
		out[qi] = merged
	}
	return out, nil
}

// Compact rebuilds every shard's reference store, reclaiming the tombstoned
// slots Remove leaves (Update rewrites in place and leaves none). Returns
// the total slots reclaimed.
func (c *Cluster) Compact() (int, error) {
	total := 0
	for i, w := range c.workers {
		n, err := w.eng.Compact()
		if err != nil {
			return total, fmt.Errorf("cluster: worker %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

// Stats aggregates shard statistics.
type Stats struct {
	Workers        int
	References     int
	CapacityImages int64
	CacheGB        float64
	PerWorker      []engine.Stats
	// Health is each worker's failure-detector state; WorkersDead counts
	// the shards currently routed around.
	Health      []HealthState
	WorkersDead int
}

// Stats returns cluster-wide occupancy and capacity.
func (c *Cluster) Stats() Stats {
	s := Stats{Workers: len(c.workers)}
	for _, w := range c.workers {
		ws := w.eng.Stats()
		s.References += ws.References
		s.CapacityImages += ws.CapacityImages
		s.CacheGB += float64(ws.Cache.GPUBudget+ws.Cache.HostBudget) / (1 << 30)
		s.PerWorker = append(s.PerWorker, ws)
		h := w.health.State()
		s.Health = append(s.Health, h)
		if h == Dead {
			s.WorkersDead++
		}
	}
	return s
}

// LoadFromStore restores every persisted record from the kvstore into the
// cluster (used at daemon startup, mirroring the paper's Redis-backed
// recovery path).
func (c *Cluster) LoadFromStore() (int, error) {
	if c.store == nil {
		return 0, fmt.Errorf("cluster: no kvstore configured")
	}
	keys, err := c.store.Keys("tex:*")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, k := range keys {
		b, ok, err := c.store.Get(k)
		if err != nil {
			return n, err
		}
		if !ok {
			continue
		}
		rec, err := wire.Decode(b)
		if err != nil {
			return n, fmt.Errorf("cluster: record %s: %w", k, err)
		}
		if err := c.put(int(rec.ID), rec.Features, rec.Keypoints, nil, putLoad); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
