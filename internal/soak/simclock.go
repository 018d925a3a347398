package soak

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"texid/internal/blas"
	"texid/internal/cluster"
)

// SimConfig shapes one deterministic sim-clock soak: an open-loop scenario
// replayed sequentially on the simulated device clock with a single-server
// queueing model. Because every input (features, arrival gaps,
// read/write interleaving) is derived from the seed and every latency is
// virtual, two runs — at any GOMAXPROCS — produce byte-identical
// transcripts.
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
	// Seed fixes features and schedule.
	Seed int64
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
		queries[i] = Perturb(rng, refs[i%sc.Refs])
	}
	churn := make([]*blas.Matrix, sc.Refs)
	for i := range churn {
		churn[i] = UnitCols(rng, 16, 24)
	}

	// Construction and enrollment are host-side setup (kvstore pings use
	// wall-clock timeouts); only the op replay below is on the simulated
	// timeline.
	c, err := cluster.New(cluster.Config{Workers: sc.Workers, Engine: TinyEngineConfig()})
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
// the run is executed simRuns times and Deterministic records whether
// every repetition produced the same transcript digest. The suite reports
// a false here as a failed result check — identity under load is a
// contract, not a statistic.
type SimReport struct {
	SimResult
	Runs          int
	Deterministic bool
}

// simRuns is how many times RunSimChecked replays the soak.
const simRuns = 3

// RunSimChecked runs the deterministic soak simRuns times and reports
// whether every repetition produced an identical transcript digest.
func RunSimChecked(sc SimConfig) (*SimReport, error) {
	first, err := RunSim(sc)
	if err != nil {
		return nil, err
	}
	rep := &SimReport{SimResult: *first, Runs: simRuns, Deterministic: true}
	for i := 1; i < simRuns; i++ {
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
