package soak

import (
	"bytes"
	"runtime"
	"testing"

	"texid/internal/cluster"
	"texid/internal/faultsim"
)

// chaosSoakConfig composes a mid-run worker kill with a partition-heal
// window inside one deterministic soak: worker-1 dies permanently a few
// reads in, worker-2 is partitioned from just after its first search
// until background local work carries its virtual clock past the window.
func chaosSoakConfig() SimConfig {
	return SimConfig{
		Workers: 3, Refs: 6, Ops: 90,
		QPS: 2000, WriteRatio: 0.25, Seed: 33,
		// Workers run one local search every 8 ops: that is the only thing
		// that moves a partitioned worker's clock, so it bounds heal time.
		LocalWorkEvery: 8,
		TraceHealth:    true,
		Plan: func(addsPerWorker int) faultsim.Plan {
			return faultsim.Plan{
				Seed: 34,
				// Worker-1 drops dead mid-run, a few searches past enrollment.
				Kill: map[string]uint64{"worker-1": uint64(addsPerWorker) + 6},
				// Worker-2's window opens after enrollment (clock 0 < 1) and
				// closes at 400 virtual µs: its first search lands it at
				// ~66µs (inside), refused calls freeze the clock there, and
				// five rounds of local work (~66µs each) carry it past the
				// window, at which point a probe resurrects it.
				Partitions: []faultsim.Partition{{Peer: "worker-2", FromUS: 1, ToUS: 400}},
			}
		},
	}
}

// runChaosSoak executes the composed scenario once and sanity-checks the
// run shape common to all repetitions.
func runChaosSoak(t *testing.T) *SimResult {
	t.Helper()
	res, err := RunSim(chaosSoakConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("degenerate mix: %d reads, %d writes", res.Reads, res.Writes)
	}
	if len(res.HealthTrace) != res.Ops {
		t.Fatalf("health trace has %d rows, want %d", len(res.HealthTrace), res.Ops)
	}
	return res
}

// TestChaosSoakComposedFaults asserts the behavioral contract of the
// composed schedule: the killed worker degrades monotonically (it never
// reports Healthy again), the partitioned worker recovers monotonically
// (once healed it stays Healthy), and reads keep succeeding as partial
// results throughout.
func TestChaosSoakComposedFaults(t *testing.T) {
	res := runChaosSoak(t)

	state := func(op, worker int) cluster.HealthState { return res.HealthTrace[op][worker] }

	// Worker-1 (killed): finds its way out of Healthy and never back.
	firstDown := -1
	for op := 0; op < res.Ops; op++ {
		if state(op, 1) != cluster.Healthy {
			firstDown = op
			break
		}
	}
	if firstDown < 0 {
		t.Fatal("killed worker never left Healthy")
	}
	sawDead := false
	for op := firstDown; op < res.Ops; op++ {
		st := state(op, 1)
		if st == cluster.Healthy {
			t.Fatalf("killed worker returned to Healthy at op %d", op)
		}
		if st == cluster.Dead {
			sawDead = true
		}
	}
	if !sawDead {
		t.Fatal("killed worker was never declared Dead")
	}

	// Worker-2 (partitioned): goes down, comes back, and stays back.
	wentDown, lastDown := false, -1
	for op := 0; op < res.Ops; op++ {
		if state(op, 2) != cluster.Healthy {
			wentDown = true
			lastDown = op
		}
	}
	if !wentDown {
		t.Fatal("partition never took worker-2 out")
	}
	if lastDown == res.Ops-1 {
		t.Fatalf("partitioned worker never healed (still %v at the end)", state(res.Ops-1, 2))
	}
	for op := lastDown + 1; op < res.Ops; op++ {
		if state(op, 2) != cluster.Healthy {
			t.Fatalf("worker-2 flapped back down at op %d after healing", op)
		}
	}

	// Worker-0 carries the whole run untouched.
	for op := 0; op < res.Ops; op++ {
		if state(op, 0) != cluster.Healthy {
			t.Fatalf("unfaulted worker-0 degraded at op %d: %v", op, state(op, 0))
		}
	}

	// Result-shape checks ride on a second run with an observer (the
	// trace-bearing transcript is already pinned byte-identical below).
	sc := chaosSoakConfig()
	minShards, lastShards := 3, -1
	sc.OnOp = func(i int, rep *cluster.Report, err error) {
		if err != nil || rep == nil {
			return
		}
		if rep.ShardsAnswered < minShards {
			minShards = rep.ShardsAnswered
		}
		lastShards = rep.ShardsAnswered
	}
	if _, err := RunSim(sc); err != nil {
		t.Fatal(err)
	}
	if minShards != 1 {
		t.Fatalf("double-fault phase answered %d shards at minimum, want 1", minShards)
	}
	if lastShards != 2 {
		t.Fatalf("final read answered %d shards, want 2 (worker-1 dead, worker-2 healed)", lastShards)
	}
}

// TestChaosSoakBitIdentical is the satellite's identity gate: the full
// transcript — wire-encoded partial results, quantized virtual
// latencies, error strings, and the per-op health trace — is
// byte-identical across 3 consecutive runs and at GOMAXPROCS 1 and 4.
func TestChaosSoakBitIdentical(t *testing.T) {
	first := runChaosSoak(t)
	for run := 0; run < 2; run++ {
		if got := runChaosSoak(t); !bytes.Equal(got.Transcript, first.Transcript) {
			t.Fatalf("run %d transcript differs", run+2)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := runChaosSoak(t)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(got.Transcript, first.Transcript) {
			t.Fatalf("GOMAXPROCS=%d transcript differs", procs)
		}
	}
}
