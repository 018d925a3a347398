package soak

import (
	"bytes"
	"runtime"
	"testing"
)

// simTestConfig is the short deterministic soak used by the identity
// tests: 3 shards, mixed read/write, Poisson virtual arrivals.
func simTestConfig() SimConfig {
	return SimConfig{
		Workers: 3, Refs: 6, Ops: 60,
		QPS: 2000, WriteRatio: 0.2, Seed: 31,
	}
}

// TestSimSoakBitIdentical is the acceptance gate for the deterministic
// half of the harness: the full transcript (wire summaries, quantized
// virtual latencies, error strings) is byte-identical across 3
// consecutive runs and at GOMAXPROCS 1 and 4.
func TestSimSoakBitIdentical(t *testing.T) {
	sc := simTestConfig()
	first, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Errors != 0 {
		t.Fatalf("%d errors without faults", first.Errors)
	}
	if first.Reads == 0 || first.Writes == 0 {
		t.Fatalf("mix collapsed: %d reads, %d writes", first.Reads, first.Writes)
	}
	if !(first.P50US <= first.P99US && first.P99US <= first.P999US && first.P999US <= first.MaxUS) {
		t.Fatalf("virtual quantiles out of order: %+v", first)
	}
	if first.MaxUS <= 0 {
		t.Fatal("no virtual latency recorded")
	}

	for run := 0; run < 2; run++ {
		again, err := RunSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Transcript, first.Transcript) {
			t.Fatalf("run %d transcript differs from first", run+2)
		}
		if again.Digest != first.Digest {
			t.Fatalf("run %d digest %s != %s", run+2, again.Digest, first.Digest)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		again, err := RunSim(sc)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Transcript, first.Transcript) {
			t.Fatalf("GOMAXPROCS=%d transcript differs", procs)
		}
	}
}

// TestSimSoakQueueingBacklog pins the coordinated-omission correction in
// the virtual queueing model: at an offered rate far above the simulated
// service rate, the open-loop queue must back up and the tail must
// dwarf the median (a closed-loop harness would report a flat profile).
func TestSimSoakQueueingBacklog(t *testing.T) {
	fast := simTestConfig()
	fast.QPS = 50 // far below service rate: nearly no queueing
	slow := simTestConfig()
	slow.QPS = 1e6 // far above service rate: every op queues

	fr, err := RunSim(fast)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSim(slow)
	if err != nil {
		t.Fatal(err)
	}
	if sr.MaxUS <= fr.MaxUS {
		t.Fatalf("overload max %v not above underload max %v", sr.MaxUS, fr.MaxUS)
	}
	// Under heavy overload the backlog grows linearly with op index, so
	// the overloaded tail must dwarf anything the underloaded run saw.
	if sr.P999US < 10*fr.MaxUS {
		t.Fatalf("overloaded p99.9 %.0fµs not far above underloaded max %.0fµs", sr.P999US, fr.MaxUS)
	}
	// The queue is one FIFO server: op i starts no earlier than op i-1
	// completes, so its latency is at least op i-1's minus the arrival gap
	// between them (less 1µs for the two truncations). A closed-loop
	// harness, which charges each op only its own service time, breaks this
	// at the first write after a read: writes take no simulated time.
	if len(sr.LatencyUS) != slow.Ops || len(sr.ArrivalUS) != slow.Ops {
		t.Fatalf("%d latencies and %d arrivals for %d ops", len(sr.LatencyUS), len(sr.ArrivalUS), slow.Ops)
	}
	for i := 1; i < slow.Ops; i++ {
		gap := sr.ArrivalUS[i] - sr.ArrivalUS[i-1]
		if floor := float64(sr.LatencyUS[i-1]) - gap - 1; float64(sr.LatencyUS[i]) < floor {
			t.Fatalf("op %d waited %dµs, under the %.0fµs backlog op %d left it: backlog not charged to delayed ops",
				i, sr.LatencyUS[i], floor, i-1)
		}
	}
}

// TestRunSimChecked pins the self-check wrapper texbench gates on.
func TestRunSimChecked(t *testing.T) {
	rep, err := RunSimChecked(simTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatal("self-check reported nondeterminism on a deterministic config")
	}
	if rep.Runs != simRuns || rep.Digest == "" {
		t.Fatalf("sim report incomplete: %+v", rep)
	}
}
