package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
	"texid/internal/serve"
	"texid/internal/soak"
)

// The serving ops measure what the micro-batching admission layer
// (internal/serve) buys over the serialized single-query path, on the
// simulated clock: a lockstep closed loop — C clients submit together,
// coalesce into one C-query SearchBatch pass, and the next wave starts when
// all have finished — on a PCIe-bound phantom workload (FP16 references
// streaming from the host cache, where sharing one H2D transfer across C
// queries is the paper's Sec. 5.3 win). Wave composition is pinned by
// construction, so simulated QPS is bit-reproducible and safe to gate in
// CI. Wall-clock serving latency is measured by the benchmark/ workloads.

// ServingConcurrencies are the offered-load levels of the suite.
var ServingConcurrencies = []int{1, 4, 16, 64}

// ServingGateConcurrency and ServingSpeedupFloor are the acceptance gate:
// at concurrency 16 the coalesced path must deliver at least 3x the
// serialized path's simulated QPS.
const (
	ServingGateConcurrency = 16
	ServingSpeedupFloor    = 3.0
)

// ServingLevel is one concurrency level of the lockstep simulation.
type ServingLevel struct {
	// SerialQPS and BatchedQPS are simulated queries/second of the
	// serialized single-query path and the coalesced path; Speedup is
	// their ratio.
	SerialQPS, BatchedQPS, Speedup float64
	// SerialP50MS/.P99MS and P50MS/P99MS are per-query simulated latency
	// quantiles (a coalesced query's latency is its batch's completion
	// time — the Sec. 5.3 trade-off, visible here as batched p50 above
	// serial p50 while QPS multiplies).
	SerialP50MS, SerialP99MS, P50MS, P99MS float64
	// MeanBatch is the achieved admission batch size.
	MeanBatch float64
}

// servingOp is one concurrency level as a suite op. Batched QPS gates at
// -10% against the baseline row, the gate concurrency's speedup carries the
// absolute floor, and Verify is the functional identity check.
func servingOp(c int) Op {
	return Op{
		Name:  fmt.Sprintf("serving_c%d", c),
		Clock: ClockSim,
		Run: func() ([]Row, error) {
			lv := servingSimLevel(c)
			speedup := newRow("speedup", lv.Speedup, "x", higher)
			if c == ServingGateConcurrency {
				speedup = speedup.limit(ServingSpeedupFloor)
			}
			return []Row{
				newRow("sim_qps_batched", lv.BatchedQPS, "qps", higher).tol(0.10),
				newRow("sim_qps_serial", lv.SerialQPS, "qps", higher),
				speedup,
				newRow("sim_p50_ms_serial", lv.SerialP50MS, "ms", lower),
				newRow("sim_p99_ms_serial", lv.SerialP99MS, "ms", lower),
				newRow("sim_p50_ms_batched", lv.P50MS, "ms", lower),
				newRow("sim_p99_ms_batched", lv.P99MS, "ms", lower),
				newRow("mean_batch", lv.MeanBatch, "queries", higher),
			}, nil
		},
		Verify: func() bool { return servingIdentityCheck(c) },
	}
}

// servingSimConfig is the PCIe-bound phantom workload: FP16 references at
// the paper's reduced budget (m = 384, Table 7) with a GPU cache holding
// exactly one resident batch, so nearly every reference batch streams over
// PCIe per search pass — the regime where coalescing C queries into one
// pass approaches C-fold throughput.
func servingSimConfig() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Spec = gpusim.TeslaP100()
	cfg.Precision = gpusim.FP16
	cfg.Algorithm = knn.RootSIFT
	cfg.BatchSize = 256
	cfg.Streams = 8
	cfg.RefFeatures = 384
	cfg.QueryFeatures = 128
	cfg.Dim = paperD
	cfg.PinnedHost = true
	cfg.HostCacheBytes = 256 << 30
	cfg.GPUCacheBytes = int64(cfg.BatchSize)*int64(cfg.RefFeatures)*int64(paperD)*2 + 1
	return cfg
}

// servingSimRefs is the phantom reference count (64 batches of 256).
const servingSimRefs = 64 * 256

// servingSimEngine builds the phantom fixture.
func servingSimEngine() *engine.Engine {
	e, err := engine.New(servingSimConfig())
	if err != nil {
		panic(fmt.Sprintf("bench: serving engine: %v", err))
	}
	if err := e.AddPhantom(0, servingSimRefs); err != nil {
		panic(fmt.Sprintf("bench: phantom refs: %v", err))
	}
	return e
}

// servingWaves is how many lockstep waves of c clients one serving level
// measures.
const servingWaves = 3

// lockstepWaves drives eb with servingWaves waves of exactly c concurrent phantom
// searches (the admission window is far above scheduling jitter and the
// batch cap equals c, so every wave coalesces into one pass) and returns
// every query's simulated latency in issue order.
func lockstepWaves(eb *serve.EngineBatcher, c int) []float64 {
	lat := make([]float64, 0, c*servingWaves)
	wave := make([]float64, c)
	for w := 0; w < servingWaves; w++ {
		var wg sync.WaitGroup
		for i := 0; i < c; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep, err := eb.Search(nil, nil)
				if err != nil {
					panic(fmt.Sprintf("bench: coalesced search: %v", err))
				}
				wave[i] = rep.ElapsedUS
			}(i)
		}
		wg.Wait()
		lat = append(lat, wave...)
	}
	return lat
}

// servingSimLevel measures one concurrency level: serialized vs coalesced
// simulated QPS on the phantom workload.
func servingSimLevel(c int) ServingLevel {
	n := c * servingWaves
	var lv ServingLevel

	// Serialized path: each search pays the full streaming pass. The
	// engine's exec lock serializes concurrent callers, so a sequential
	// loop measures the same simulated cost without scheduling noise.
	eSerial := servingSimEngine()
	serial := make([]float64, n)
	var serialUS float64
	for i := range serial {
		rep, err := eSerial.Search(nil, nil)
		if err != nil {
			panic(fmt.Sprintf("bench: serial search: %v", err))
		}
		serial[i] = rep.ElapsedUS
		serialUS += rep.ElapsedUS
	}

	// Coalesced path: lockstep waves of c clients share each pass.
	eBatched := servingSimEngine()
	eb := serve.ForEngine(eBatched, serve.Options{MaxBatch: c, Window: time.Second})
	batched := lockstepWaves(eb, c)
	eb.Close()
	// Every query in a wave reports the wave's completion time; summing
	// one latency per wave gives the coalesced timeline's total length.
	var batchedUS float64
	for w := 0; w < servingWaves; w++ {
		batchedUS += batched[w*c]
	}

	st := eb.Stats()
	lv.SerialQPS = float64(n) / serialUS * 1e6
	lv.BatchedQPS = float64(n) / batchedUS * 1e6
	lv.Speedup = lv.BatchedQPS / lv.SerialQPS
	lv.SerialP50MS = quantileUS(serial, 0.50) / 1000
	lv.SerialP99MS = quantileUS(serial, 0.99) / 1000
	lv.P50MS = quantileUS(batched, 0.50) / 1000
	lv.P99MS = quantileUS(batched, 0.99) / 1000
	lv.MeanBatch = st.MeanBatch
	return lv
}

// servingIdentityCheck runs 2c functional queries both sequentially and
// through the admission layer (waves of c) on one engine and reports
// whether every per-query result matched exactly.
func servingIdentityCheck(c int) bool {
	e, err := engine.New(soak.TinyEngineConfig())
	if err != nil {
		panic(fmt.Sprintf("bench: identity engine: %v", err))
	}
	rng := rand.New(rand.NewSource(83))
	refs := make([]*blas.Matrix, 12)
	for i := range refs {
		refs[i] = soak.UnitCols(rng, 16, 24)
		if err := e.Add(i, refs[i], nil); err != nil {
			panic(fmt.Sprintf("bench: identity enroll: %v", err))
		}
	}
	n := 2 * c
	if n > 64 {
		n = 64
	}
	queries := make([]*blas.Matrix, n)
	for i := range queries {
		queries[i] = soak.Perturb(rng, refs[i%len(refs)])
	}

	want := make([]*engine.Report, n)
	for i, q := range queries {
		rep, err := e.Search(q, nil)
		if err != nil {
			panic(fmt.Sprintf("bench: identity serial: %v", err))
		}
		want[i] = rep
	}

	eb := serve.ForEngine(e, serve.Options{MaxBatch: c, Window: time.Second})
	defer eb.Close()
	got := make([]*engine.Report, n)
	for base := 0; base < n; base += c {
		end := base + c
		if end > n {
			end = n
		}
		var wg sync.WaitGroup
		for i := base; i < end; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rep, err := eb.Search(queries[i], nil)
				if err != nil {
					panic(fmt.Sprintf("bench: identity coalesced: %v", err))
				}
				got[i] = rep
			}(i)
		}
		wg.Wait()
	}

	for i := range queries {
		g, w := got[i], want[i]
		if g.BestID != w.BestID || g.Score != w.Score || g.Accepted != w.Accepted ||
			g.Compared != w.Compared || len(g.Ranked) != len(w.Ranked) {
			return false
		}
		for j := range g.Ranked {
			if g.Ranked[j] != w.Ranked[j] {
				return false
			}
		}
	}
	return true
}

// quantileUS returns the q-quantile of the (copied, sorted) latency
// samples.
func quantileUS(lat []float64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
