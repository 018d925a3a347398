// Package soak is the deterministic sustained-load harness for the serving
// path: RunSim replays an open-loop scenario against an in-process cluster
// on the simulated device clock and reports coordinated-omission-safe tail
// latency plus a transcript digest that is bit-identical across runs and
// GOMAXPROCS settings. internal/bench's soak_sim op turns it into rows that
// gate against BENCH_BASELINE.json, including in CI. The wall-clock serving
// measurement is the nested benchmark/ module.
//
// Open loop vs closed loop: a closed-loop generator (a fixed worker pool
// issuing the next request only after the previous one returns) lets a
// slow server throttle its own load — stalls shrink the offered rate and
// the measured tail collapses toward the stall-free path. The soak
// harness instead draws request *arrival times* from the configured rate
// (Poisson interarrivals) independently of how long earlier requests took.
//
// Coordinated omission: every latency is measured against the request's
// arrival time, not the moment the server got around to it. When a slow
// shard backs up the virtual queue, that queueing delay is charged to the
// requests it delayed rather than silently dropped — the p99.9 of the
// report is the p99.9 an open-loop client would have seen.
//
// The package also holds the tiny engine and the feature fixtures the
// other in-process measurements build on.
package soak

import (
	"math"
	"math/rand"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/knn"
)

// TinyEngineConfig is the tiny functional FP32 engine every in-process
// measurement fixture runs on — the sim-clock soak, the allocation probes
// and the serving identity check (mirrors the cluster test fixture).
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

// Features returns the fixed reference and query pools the allocation
// probes enroll and search: 16 references for TinyEngineConfig, then 64
// queries, query i a perturbed copy of reference i%8.
func Features() (refs, queries []*blas.Matrix) {
	rng := rand.New(rand.NewSource(1))
	refs = make([]*blas.Matrix, 16)
	for i := range refs {
		refs[i] = UnitCols(rng, 16, 24)
	}
	queries = make([]*blas.Matrix, 64)
	for i := range queries {
		queries[i] = Perturb(rng, refs[i%8], 32)
	}
	return refs, queries
}
