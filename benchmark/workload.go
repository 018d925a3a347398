package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"time"

	"texid"
	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/serve"
	"texid/internal/sift"
	"texid/internal/wire"
)

// spec is one workload: the fixture it builds and the traffic it sends.
// The four values below are the whole configuration space of the benchmark;
// nothing here is settable from the command line.
type spec struct {
	name string
	why  string // one line, repeated verbatim in BENCHMARK.json

	lib   bool // texid.Open + System.SearchImage; otherwise the REST cluster
	churn bool // batch searches beside a paced writer, with a kvstore

	precision gpusim.Precision
	batchSize int
	pruneC    int
	refs      int
	gpuCache  int64 // per-shard GPUCacheBytes; 0 = derive from the device
	callers   int   // closed-loop search callers
}

const (
	shards       = 2
	stableRefs   = 16  // churn workload: ids below this are never rewritten
	writesPerSec = 10  // churn workload: paced PUT rate
	compactEvery = 64  // churn workload: POST /v1/compact after this many writes
	setupsPerRun = 3   // a run builds its fixture this often; setup_s is the fastest
	warmups      = 8   // requests sent before set-up counts as finished
	streams      = 4   // CUDA streams per engine
	serveBatch   = 16  // texsearchd -max-batch default
	serveWindow  = 200 // texsearchd -batch-window-us default
)

var workloads = []spec{
	{
		name:      "rest_search_resident",
		why:       "single-query REST path on a GPU-resident FP16 index: HGemm+top-2 dominate; prefilter, cache demotion and H2D do nothing",
		precision: gpusim.FP16, batchSize: 8, refs: 32, callers: 2,
	},
	{
		name:      "rest_search_pruned_hybrid",
		why:       "Hamming prefilter over 2560 refs with 38 of 40 batches per shard host-resident: scan, top-C, candidate H2D and rerank dominate",
		precision: gpusim.FP16, batchSize: 32, pruneC: 4, refs: 2560, gpuCache: 8 << 20, callers: 2,
	},
	{
		name:  "rest_batch_churn",
		why:   "FP32 multi-query batches beside a paced single writer with kvstore and compaction: writes wait on the engine lock and seal one-image batches",
		churn: true, precision: gpusim.FP32, batchSize: 8, refs: 32, callers: 1,
	},
	{
		name: "lib_image_search",
		why:  "library path from pixels: sift.Extract is most of every SearchImage call and of set-up; REST bypasses it entirely",
		lib:  true, precision: gpusim.FP16, batchSize: 8, refs: libRefs, callers: 1,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// engineConfig is the production configuration with the workload's knobs.
func (s spec) engineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Streams = streams
	cfg.BatchSize = s.batchSize
	cfg.Precision = s.precision
	cfg.PruneC = s.pruneC
	cfg.GPUCacheBytes = s.gpuCache
	return cfg
}

func serveOptions() serve.Options {
	return serve.Options{MaxBatch: serveBatch, Window: serveWindow * time.Microsecond}
}

// inputs is everything a workload feeds the system, generated from the seed
// before any clock starts. The program under test only ever sees these.
type inputs struct {
	seed int64

	// REST workloads.
	refs    []*blas.Matrix    // version 0 of reference id = index
	queries []*blas.Matrix    // pooled queries
	qryKps  [][]sift.Keypoint // their keypoints
	bodies  [][]byte          // pre-encoded request bodies, perRequest queries each

	// Library workload.
	refImgs map[int]*texid.Image
	qryImgs []*texid.Image

	truth      []int // ground-truth reference id of pooled query i
	perRequest int   // queries per request
}

func (in *inputs) requests() int { return len(in.truth) / in.perRequest }

// recordB64 is the base64 wire record REST bodies carry. Queries travel as
// FP32 records, as texsearch sends them.
func recordB64(id int, feats *blas.Matrix, kps []sift.Keypoint) string {
	rec := &wire.FeatureRecord{ID: int64(id), Precision: gpusim.FP32, Scale: 1, Features: feats, Keypoints: kps}
	return base64.StdEncoding.EncodeToString(wire.Encode(rec))
}

func mustJSON(v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		panic(fmt.Sprintf("benchmark: encoding a request body: %v", err)) // only strings and slices of strings are passed
	}
	return b.Bytes()
}

// generate builds the workload's inputs from the seed.
func (s spec) generate(seed int64) *inputs {
	in := &inputs{seed: seed, perRequest: 1}
	pick := subSeed(seed, purposePick, 0)
	if s.lib {
		in.refImgs = make(map[int]*texid.Image, s.refs)
		for id := 0; id < s.refs; id++ {
			in.refImgs[id] = texid.GenerateTexture(seed*1000 + int64(id))
		}
		for i := 0; i < libPool; i++ {
			id := i % s.refs
			in.truth = append(in.truth, id)
			in.qryImgs = append(in.qryImgs, texid.CaptureQuery(in.refImgs[id], int64(pick.next()>>1), libDiffic))
		}
		return in
	}

	in.refs = make([]*blas.Matrix, s.refs)
	blas.Parallel(s.refs, func(id int) { in.refs[id] = refDescriptors(seed, id, 0) })

	// Pooled queries target distinct references: all of them when the index
	// is small, a seeded sample otherwise. The churn workload only aims at
	// ids the writer never touches, so ground truth holds under writes.
	targets := s.refs
	if s.churn {
		targets = stableRefs
	}
	for i := 0; i < poolSize; i++ {
		id := i % targets
		if targets > poolSize {
			id = pick.intn(targets)
		}
		in.truth = append(in.truth, id)
		in.queries = append(in.queries, queryDescriptors(seed, i, in.refs[id]))
		in.qryKps = append(in.qryKps, keypoints(seed, i, qryFeats))
	}

	if s.churn {
		in.perRequest = batchOf
		for i := 0; i < poolSize; i += batchOf {
			var recs []string
			for k := i; k < i+batchOf; k++ {
				recs = append(recs, recordB64(0, in.queries[k], in.qryKps[k]))
			}
			in.bodies = append(in.bodies, mustJSON(map[string][]string{"records_b64": recs}))
		}
		return in
	}
	for i := range in.queries {
		in.bodies = append(in.bodies, mustJSON(map[string]string{"record_b64": recordB64(0, in.queries[i], in.qryKps[i])}))
	}
	return in
}

// writeBody is the PUT body that rewrites reference id with its version-th
// variant (churn workload).
func (in *inputs) writeBody(id, version int) []byte {
	feats := refDescriptors(in.seed, id, version)
	return mustJSON(map[string]string{"record_b64": recordB64(id, feats, keypoints(in.seed, 1<<20+id, refFeats))})
}
