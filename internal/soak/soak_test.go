package soak

import (
	"testing"
	"time"
)

// shortFixture shrinks the default fixture for seconds-scale tests.
func shortFixture() FixtureConfig {
	fc := DefaultFixture()
	fc.CompactEvery = 16
	return fc
}

// TestWallSoakSteady drives a one-shard in-process cluster with a short
// read-only open-loop scenario and checks the report is coherent:
// every op accounted for, no errors, CO-safe quantiles ordered, and GC
// telemetry populated.
func TestWallSoakSteady(t *testing.T) {
	target, err := NewClusterTarget(1, shortFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close() //nolint:errcheck

	res, err := Run(target, Scenario{
		Name: "steady", QPS: 100, Duration: 1500 * time.Millisecond, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors under steady load", res.Errors)
	}
	if res.Reads+res.Writes != int64(int(100*1.5)) {
		t.Fatalf("ops %d+%d, want %d scheduled arrivals", res.Reads, res.Writes, int(100*1.5))
	}
	if res.Writes != 0 || res.Write != nil {
		t.Fatalf("read-only scenario recorded %d writes", res.Writes)
	}
	r := res.Read
	if !(r.P50MS <= r.P99MS && r.P99MS <= r.P999MS && r.P999MS <= r.MaxMS) {
		t.Fatalf("quantiles out of order: %+v", r)
	}
	if r.MaxMS <= 0 {
		t.Fatalf("no latency recorded: %+v", r)
	}
	if res.GC.AllocMB <= 0 {
		t.Fatalf("GC telemetry missing: %+v", res.GC)
	}
	if res.GC.GoroutinePeak < 1 {
		t.Fatalf("goroutine peak not sampled: %+v", res.GC)
	}
}

// TestWallSoakChurn mixes enrollment churn into the read stream and
// verifies writes actually execute (including periodic compaction) and
// reads keep succeeding while the index is rewritten underneath them.
func TestWallSoakChurn(t *testing.T) {
	target, err := NewClusterTarget(1, shortFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close() //nolint:errcheck

	res, err := Run(target, Scenario{
		Name: "churn", QPS: 100, Duration: 1500 * time.Millisecond,
		WriteRatio: 0.3, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors under churn", res.Errors)
	}
	if res.Writes == 0 || res.Write == nil {
		t.Fatal("churn scenario performed no writes")
	}
	if res.Reads == 0 {
		t.Fatal("churn scenario performed no reads")
	}
	if target.ch.writes.Load() == 0 {
		t.Fatal("churner never ran")
	}
	if target.ch.compactEvery > 0 && target.ch.writes.Load() > target.ch.compactEvery {
		// At least one compaction must have fired once enough writes ran.
		stats := target.c.Workers()[0].Stats()
		if stats.Searches == 0 {
			t.Fatalf("engine stats empty after soak: %+v", stats)
		}
	}
}

// TestWallSoakClusterTarget runs the multi-shard in-process target (the
// coordinator coalescing path) under mixed load.
func TestWallSoakClusterTarget(t *testing.T) {
	target, err := NewClusterTarget(3, shortFixture())
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close() //nolint:errcheck

	res, err := Run(target, Scenario{
		Name: "cluster-churn", QPS: 80, Duration: time.Second,
		WriteRatio: 0.2, Arrival: ArrivalUniform, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors on the cluster target", res.Errors)
	}
	searches := 0
	for _, ws := range target.Cluster().Stats().PerWorker {
		searches += ws.Searches
	}
	if searches == 0 {
		t.Fatal("cluster saw no searches")
	}
}

// TestScenarioAppliesGOGC runs the two kinds of GC sweep point — a GOGC
// override and a soft memory limit — and checks each is labeled and
// measured.
func TestScenarioAppliesGOGC(t *testing.T) {
	for _, sc := range []Scenario{
		{Name: "steady/gogc=400", QPS: 60, Duration: 700 * time.Millisecond, Seed: 24, GOGC: 400},
		{Name: "steady/memlimit=256MiB", QPS: 60, Duration: 700 * time.Millisecond, Seed: 24, MemLimitMB: 256},
	} {
		target, err := NewClusterTarget(1, shortFixture())
		if err != nil {
			t.Fatal(err)
		}
		p, err := Run(target, sc)
		target.Close() //nolint:errcheck
		if err != nil {
			t.Fatal(err)
		}
		if p.GOGC != sc.GOGC || p.MemLimitMB != sc.MemLimitMB {
			t.Fatalf("sweep labels wrong: %+v", p)
		}
		if p.Errors != 0 || p.Read.Count == 0 {
			t.Fatalf("sweep point %s unhealthy: %+v", p.Name, p)
		}
	}
}

// TestScheduleDeterministic pins that the arrival schedule is a pure
// function of the scenario seed.
func TestScheduleDeterministic(t *testing.T) {
	sc := Scenario{Name: "x", QPS: 500, Duration: time.Second, WriteRatio: 0.25, Seed: 7}
	a, b := schedule(sc), schedule(sc)
	if len(a) != len(b) || len(a) != 500 {
		t.Fatalf("schedule sizes: %d vs %d", len(a), len(b))
	}
	writes := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between runs", i)
		}
		if i > 0 && a[i].offset < a[i-1].offset {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		if a[i].write {
			writes++
		}
	}
	if writes < 80 || writes > 170 {
		t.Fatalf("write mix %d/500 far from the configured 25%%", writes)
	}
}
