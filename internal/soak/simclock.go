package soak

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/faultsim"
)

// SimConfig shapes one deterministic sim-clock soak: an open-loop scenario
// replayed sequentially on the simulated device clock with a single-server
// queueing model. Because every input
// (features, arrival gaps, read/write interleaving, fault schedule) is
// derived from the seed and every latency is virtual, two runs — at any
// GOMAXPROCS — produce byte-identical transcripts.
type SimConfig struct {
	// Workers is the shard count; Refs the enrolled population.
	Workers int
	Refs    int
	// Ops is the number of soak operations to replay.
	Ops int
	// QPS is the virtual arrival rate (ops per simulated second), drawn
	// as Poisson interarrival gaps.
	QPS float64
	// WriteRatio is the fraction of ops that are churn Updates.
	WriteRatio float64
	// Seed fixes features, schedule, and fault streams.
	Seed int64
	// MinShards passes through to the cluster config.
	MinShards int
	// Plan, when non-nil, builds the fault schedule. It receives the
	// number of transport Add calls each worker sees during enrollment,
	// so kill indices can be placed relative to the soak's own reads.
	Plan func(addsPerWorker int) faultsim.Plan
	// LocalWorkEvery, when > 0, has every worker run one direct local
	// search each time this many ops complete — the background
	// maintenance work a real shard performs regardless of coordinator
	// traffic. It is what advances a partitioned worker's virtual clock
	// (coordinator calls are refused before they reach the engine), so
	// partition-heal schedules need it to make the heal reachable.
	LocalWorkEvery int
	// OnOp, when non-nil, observes every completed op (for health-FSM
	// assertions in tests). It must be deterministic if the transcript
	// digest is being compared.
	OnOp func(i int, rep *cluster.Report, err error)
	// TraceHealth, when set, samples every worker's health state after
	// each op into SimResult.HealthTrace and folds the states into the
	// transcript, so failure-detector trajectories are part of the
	// byte-identity contract.
	TraceHealth bool
}

// SimResult is the outcome of one deterministic soak.
type SimResult struct {
	Ops    int
	Reads  int
	Writes int
	Errors int
	// Virtual CO-safe latency quantiles in simulated microseconds.
	P50US  float64
	P99US  float64
	P999US float64
	MaxUS  float64
	// ArrivalUS and LatencyUS are each op's virtual arrival time and its
	// recorded (quantized) CO-safe latency, in op order.
	ArrivalUS []float64
	LatencyUS []int64
	// Digest is the FNV-64a hash of the transcript, rendered as hex.
	Digest string
	// Transcript concatenates each read's wire-encoded summary, its
	// quantized virtual latency, and every error string (not serialized;
	// compared byte-for-byte by the determinism tests).
	Transcript []byte
	// HealthTrace[i] is every worker's health state after op i (only
	// populated when SimConfig.TraceHealth is set).
	HealthTrace [][]cluster.HealthState
}

// RunSim replays one deterministic sim-clock soak.
//
// The queueing model is open-loop single-server: op i's virtual start is
// max(arrival_i, completion_{i-1}), its service time is the simulated
// ElapsedUS the cluster reports, and its recorded latency is completion
// minus *arrival* — the coordinated-omission-safe definition, so a slow
// shard backs up the virtual queue and the backlog is charged to the ops
// it delayed.
//
// Nothing on the virtual timeline reads the wall clock or the global
// math/rand source; TestSimSoakBitIdentical's three-run digest holds that.
func RunSim(sc SimConfig) (*SimResult, error) {
	if sc.Workers < 1 || sc.Refs < 1 || sc.Ops < 1 || sc.QPS <= 0 {
		return nil, fmt.Errorf("soak: sim config needs Workers, Refs, Ops, QPS")
	}
	rng := rand.New(rand.NewSource(sc.Seed))

	refs := make([]*blas.Matrix, sc.Refs)
	for i := range refs {
		refs[i] = UnitCols(rng, 16, 24)
	}
	queries := make([]*blas.Matrix, 2*sc.Refs)
	for i := range queries {
		queries[i] = Perturb(rng, refs[i%sc.Refs], 32)
	}
	churn := make([]*blas.Matrix, sc.Refs)
	for i := range churn {
		churn[i] = UnitCols(rng, 16, 24)
	}

	cfg := cluster.Config{
		Workers:   sc.Workers,
		Engine:    TinyEngineConfig(),
		MinShards: sc.MinShards,
	}
	if sc.Plan != nil {
		cfg.Fault = faultsim.New(sc.Plan(sc.Refs / sc.Workers))
	}
	// Construction and enrollment are host-side setup (kvstore pings use
	// wall-clock timeouts); only the op replay below is on the simulated
	// timeline.
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for i, f := range refs {
		if err := c.Add(i, f, nil); err != nil {
			return nil, fmt.Errorf("soak: sim enroll %d: %w", i, err)
		}
	}

	res := &SimResult{Ops: sc.Ops, ArrivalUS: make([]float64, 0, sc.Ops), LatencyUS: make([]int64, 0, sc.Ops)}
	var (
		lat        hist
		transcript []byte
		arrival    float64 // virtual µs
		busy       float64 // virtual completion time of the previous op
		gapUS      = 1e6 / sc.QPS
	)
	for i := 0; i < sc.Ops; i++ {
		arrival += rng.ExpFloat64() * gapUS
		write := rng.Float64() < sc.WriteRatio
		key := uint64(rng.Int63())

		var service float64
		var rep *cluster.Report
		var opErr error
		if write {
			res.Writes++
			id := int(key % uint64(sc.Refs))
			// RPC plumbing is host-side; only the simulated ElapsedUS
			// it returns enters the virtual timeline.
			opErr = c.Update(id, churn[key%uint64(len(churn))], nil)
		} else {
			res.Reads++
			rep, opErr = c.Search(queries[key%uint64(len(queries))], nil)
			if opErr == nil {
				service = rep.ElapsedUS
			}
		}

		start := arrival
		if busy > start {
			start = busy
		}
		complete := start + service
		busy = complete
		l := int64(complete - arrival)
		lat.record(l)
		res.ArrivalUS = append(res.ArrivalUS, arrival)
		res.LatencyUS = append(res.LatencyUS, l)

		if opErr != nil {
			res.Errors++
			transcript = append(transcript, fmt.Sprintf("op %d error: %v\n", i, opErr)...)
		} else if rep != nil {
			transcript = rep.AppendDigest(transcript)
		}
		transcript = binary.BigEndian.AppendUint64(transcript, uint64(l))
		if sc.TraceHealth {
			states := c.Health()
			res.HealthTrace = append(res.HealthTrace, states)
			for _, st := range states {
				transcript = append(transcript, byte(st))
			}
		}
		if sc.OnOp != nil {
			sc.OnOp(i, rep, opErr)
		}
		if sc.LocalWorkEvery > 0 && (i+1)%sc.LocalWorkEvery == 0 {
			for wi, eng := range c.Workers() {
				if _, err := eng.Search(queries[uint64(i+wi)%uint64(len(queries))], nil); err != nil {
					return nil, fmt.Errorf("soak: local work on worker %d: %w", wi, err)
				}
			}
		}
	}

	res.P50US = float64(lat.quantile(0.50))
	res.P99US = float64(lat.quantile(0.99))
	res.P999US = float64(lat.quantile(0.999))
	res.MaxUS = float64(lat.max)
	res.Transcript = transcript
	h := fnv.New64a()
	_, _ = h.Write(transcript)
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
	return res, nil
}

// SimReport wraps the deterministic soak outcome with its self-check:
// the run is executed at least twice and Deterministic records whether
// every repetition produced the same transcript digest. The suite reports
// a false here as a failed result check — identity under load is a
// contract, not a statistic.
type SimReport struct {
	SimResult
	Runs          int
	Deterministic bool
}

// RunSimChecked runs the deterministic soak `runs` times and reports
// whether every repetition produced an identical transcript digest.
func RunSimChecked(sc SimConfig, runs int) (*SimReport, error) {
	if runs < 2 {
		runs = 2
	}
	first, err := RunSim(sc)
	if err != nil {
		return nil, err
	}
	rep := &SimReport{SimResult: *first, Runs: runs, Deterministic: true}
	for i := 1; i < runs; i++ {
		again, err := RunSim(sc)
		if err != nil {
			return nil, err
		}
		if again.Digest != first.Digest {
			rep.Deterministic = false
		}
	}
	return rep, nil
}
