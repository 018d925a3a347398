package bench

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/serve"
	"texid/internal/sift"
	"texid/internal/soak"
	"texid/internal/wire"
)

// soakShards is the shard count of the sim soak and the cluster probes.
const soakShards = 3

// soakSimConfig is the deterministic sim-clock soak: a fixed fault-free
// schedule whose transcript digest must be identical across repetitions
// (and across GOMAXPROCS — the chaos tests pin that separately).
var soakSimConfig = soak.SimConfig{
	Workers:    soakShards,
	Refs:       6,
	Ops:        400,
	QPS:        2000,
	WriteRatio: 0.2,
	Seed:       41,
}

// soakSimOp replays soakSimConfig three times on the simulated clock.
// Verify is the determinism contract — one transcript digest across the
// runs — plus a zero error count (the schedule is fault-free). The digest
// itself is recorded as two exact 32-bit halves, so a baseline diff shows
// whether a change moved any search result.
func soakSimOp() Op {
	var rep *soak.SimReport
	return Op{
		Name:  "soak_sim",
		Clock: ClockSim,
		Run: func() ([]Row, error) {
			var err error
			if rep, err = soak.RunSimChecked(soakSimConfig); err != nil {
				return nil, err
			}
			digest, err := strconv.ParseUint(rep.Digest, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("transcript digest %q: %w", rep.Digest, err)
			}
			return []Row{
				newRow("errors", float64(rep.Errors), "ops", lower),
				newRow("ops", float64(rep.Ops), "ops", ""),
				newRow("reads", float64(rep.Reads), "ops", ""),
				newRow("writes", float64(rep.Writes), "ops", ""),
				newRow("p50_us", rep.P50US, "us", lower),
				newRow("p99_us", rep.P99US, "us", lower),
				newRow("p999_us", rep.P999US, "us", lower),
				newRow("max_us", rep.MaxUS, "us", lower),
				newRow("digest_hi32", float64(digest>>32), "fnv64a", ""),
				newRow("digest_lo32", float64(digest&0xffffffff), "fnv64a", ""),
			}, nil
		},
		Verify: func() bool { return rep.Deterministic && rep.Errors == 0 },
	}
}

// A probe measures probeWindows windows of its runs calls each and reports
// the window with the fewest allocations. The malloc count is process-wide,
// so a collection or a stray goroutine inside a window can only add to it;
// the quietest window is the body's own count.
const probeWindows = 5

// probeOp measures the steady-state heap allocations per call of a serving
// hot path: a code-shape property, so it gates at zero upward drift (0.5
// is rounding slack) against a baseline from any machine. setup returns the
// probed body and its teardown; Verify is that no call failed.
func probeOp(name string, runs int, setup func() (body func() error, done func(), err error)) Op {
	var bodyErr error
	return Op{
		Name:  "probe_" + name,
		Clock: ClockCount,
		Run: func() ([]Row, error) {
			body, done, err := setup()
			if err != nil {
				return nil, err
			}
			defer done()
			f := func() {
				if err := body(); err != nil {
					bodyErr = err
				}
			}
			f() // warm caches and freelists outside the measured windows
			_, fewest := timed(runs, f)
			for w := 1; w < probeWindows; w++ {
				_, mallocs := timed(runs, f)
				fewest = min(fewest, mallocs)
			}
			return []Row{newRow("allocs_per_op", float64(fewest)/float64(runs), "allocs/op", lower).tol(0.5)}, nil
		},
		Verify: func() bool { return bodyErr == nil },
	}
}

// engineProbes are the engine shapes the search probe runs over one
// fixture: storage precision × Hamming prefilter, so every kernel family on
// the serving path (GEMM, HGEMM and its staging, code encode, scan, top-C
// and slot gathering) sits under an exact row, and once more through the
// admission wrapper (serve.EngineBatcher at MaxBatch 1).
var engineProbes = []struct {
	name      string
	precision gpusim.Precision
	pruneC    int
	batcher   bool
}{
	{"engine_search_steady", gpusim.FP32, 0, false},
	{"engine_search_steady_fp16", gpusim.FP16, 0, false},
	{"engine_search_steady_pruned", gpusim.FP32, 4, false},
	{"engine_search_steady_fp16_pruned", gpusim.FP16, 4, false},
	{"serve_engine_search", gpusim.FP32, 0, true},
}

// probeOps are the allocation probes, over the soak fixture data. Together
// their rows are the host search path's allocation contract: a change that
// adds a steady-state allocation anywhere under them moves a row.
func probeOps() []Op {
	var ops []Op
	// One warm search per engine shape (the knn hot path).
	for _, p := range engineProbes {
		ops = append(ops, probeOp(p.name, 20, func() (func() error, func(), error) {
			cfg := soak.TinyEngineConfig()
			cfg.Precision, cfg.PruneC = p.precision, p.pruneC
			eng, err := engine.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			refs, queries := soak.Features()
			for i, f := range refs {
				if err := eng.Add(i, f, nil); err != nil {
					return nil, nil, err
				}
			}
			if err := eng.Flush(); err != nil {
				return nil, nil, err
			}
			search, done := eng.Search, func() {}
			if p.batcher {
				eb := serve.ForEngine(eng, serve.Options{MaxBatch: 1})
				search, done = eb.Search, eb.Close
			}
			return func() error { _, err := search(queries[0], nil); return err }, done, nil
		}))
	}
	return append(ops,
		// One FP16 seal of a 32-reference batch with the prefilter on,
		// fresh engine included (engine_seal_fp16_pruned's body). Each
		// seal allocates a 3 MiB panel, so a collection starts inside
		// every window and adds allocations of its own: under
		// TEXID_NOASM=1 the fewest of the windows read 81.4, not 81. The
		// collector is held off for the probe's calls (≈80 MiB), so the
		// row counts the seal's own allocations on every tier.
		probeOp("engine_seal_fp16_pruned", 5, func() (func() error, func(), error) {
			fx := newSealFixture()
			gc := debug.SetGCPercent(-1)
			return func() error { _, err := fx.seal(); return err }, func() { debug.SetGCPercent(gc) }, nil
		}),
		// One Batcher.Do round trip through the pooled call freelist
		// (identity runner, MaxBatch=1, so no coalescing noise — the pure
		// submit/demux overhead, which must stay at zero).
		probeOp("serve_submit_demux", 100, func() (func() error, func(), error) {
			results := make([]int, 1)
			b := serve.New(func(qs []int) ([]int, error) {
				results = append(results[:0], qs...)
				return results, nil
			}, serve.Options{MaxBatch: 1})
			return func() error { _, err := b.Do(7); return err }, b.Close, nil
		}),
		// One 4-query SearchBatch scatter-gather across 3 shards, merge
		// included.
		probeOp("cluster_searchbatch_scatter", 10, func() (func() error, func(), error) {
			c, queries, done, err := soakCluster()
			if err != nil {
				return nil, nil, err
			}
			batch := []*blas.Matrix{queries[0], queries[1], queries[2], queries[3]}
			kps := make([][]sift.Keypoint, len(batch))
			return func() error { _, err := c.SearchBatch(batch, kps); return err }, done, nil
		}),
		// One /v1/search through Cluster.Handler() on the same cluster
		// shape: body read, decode, scatter and the encoded answer, with the
		// body json.Encoder writes for a client's request.
		probeOp("rest_search", 50, func() (func() error, func(), error) {
			c, queries, done, err := soakCluster()
			if err != nil {
				return nil, nil, err
			}
			rec := &wire.FeatureRecord{Precision: gpusim.FP32, Scale: 1, Features: queries[0]}
			body, err := json.Marshal(map[string]string{"record_b64": base64.StdEncoding.EncodeToString(wire.Encode(rec))})
			if err != nil {
				done()
				return nil, nil, err
			}
			body = append(body, '\n')
			h := c.Handler()
			return func() error {
				// http.NewRequest, not httptest.NewRequest: the latter parses
				// through a pooled textproto reader, and a GC inside the
				// measured window would move the count.
				req, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
				if err != nil {
					return err
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					return fmt.Errorf("rest search: %d %s", w.Code, w.Body)
				}
				return nil
			}, done, nil
		}),
	)
}

// soakCluster is the cluster probes' fixture: a soakShards-shard cluster of
// the tiny engine with the soak fixture's references enrolled, its queries,
// and its teardown.
func soakCluster() (*cluster.Cluster, []*blas.Matrix, func(), error) {
	c, err := cluster.New(cluster.Config{Workers: soakShards, Engine: soak.TinyEngineConfig()})
	if err != nil {
		return nil, nil, nil, err
	}
	done := func() { _ = c.Close() } // in-process fixture teardown; nothing to recover from here
	refs, queries := soak.Features()
	for i, f := range refs {
		if err := c.Add(i, f, nil); err != nil {
			done()
			return nil, nil, nil, err
		}
	}
	return c, queries, done, nil
}
