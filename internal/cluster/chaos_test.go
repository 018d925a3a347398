package cluster

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/faultsim"
	"texid/internal/match"
)

// The chaos suite drives the fault-tolerant serving path through seeded
// fault schedules and asserts the headline contract: with a fixed seed,
// killing any minority of workers mid-stream yields a deterministic,
// byte-identical partial result (same matches, Partial=true, correct
// ShardsAnswered) across consecutive runs and across GOMAXPROCS settings.
// Determinism comes from three design rules the tests below pin down:
// per-peer fault streams (faultsim), virtual-clock-only timing, and
// call-count-driven health transitions.

// chaosScenario is one table entry: a cluster shape, a fault plan, and the
// properties the (deterministic) outcome must satisfy.
type chaosScenario struct {
	name      string
	workers   int
	refs      int
	searches  int
	minShards int
	// directEnroll loads references straight into the shard engines,
	// bypassing the fault transport (for schedules whose rates would make
	// cluster.Add non-idempotent, e.g. reply loss).
	directEnroll bool
	// localWorkEvery, when > 0, has every worker run one direct local
	// search after each localWorkEvery-th search: the background work a
	// real shard performs regardless of coordinator traffic. It is what
	// advances a partitioned worker's virtual clock (coordinator calls are
	// refused before they reach the engine), so partition-heal schedules
	// need it to reach the heal.
	localWorkEvery int
	plan           func(addsPerWorker int) faultsim.Plan
	// check runs once per scenario (first run, default GOMAXPROCS) on the
	// collected outcome.
	check func(t *testing.T, out *chaosOutcome)
}

// chaosOutcome is everything one scenario run produced.
type chaosOutcome struct {
	c          *Cluster
	reports    []*Report // nil where the search errored
	errors     []error
	health     [][]HealthState // every worker's state after each search
	transcript []byte          // wire summaries / error strings, then the health states, per search
}

// runChaos executes a scenario once and returns the outcome. Reference and
// query features derive from a fixed rng seed, so every run sees identical
// inputs.
func runChaos(t *testing.T, sc chaosScenario) *chaosOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	refs := make([]*blas.Matrix, sc.refs)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
	}
	queries := make([]*blas.Matrix, sc.searches)
	for i := range queries {
		// Every query targets reference 0 — enrolled on worker 0, which no
		// scenario kills — so a correct partial merge keeps finding it.
		queries[i] = queryFor(rng, refs[0], 32)
	}

	addsPerWorker := sc.refs / sc.workers
	if sc.directEnroll {
		addsPerWorker = 0
	}
	c, err := New(Config{
		Workers:   sc.workers,
		Engine:    smallEngine(),
		MinShards: sc.minShards,
		fault:     faultsim.New(sc.plan(addsPerWorker)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range refs {
		if sc.directEnroll {
			if err := c.workers[i%sc.workers].eng.Add(i, f, nil); err != nil {
				t.Fatalf("direct enroll %d: %v", i, err)
			}
		} else if err := c.Add(i, f, nil); err != nil {
			t.Fatalf("enroll %d: %v", i, err)
		}
	}

	out := &chaosOutcome{c: c, reports: make([]*Report, sc.searches), errors: make([]error, sc.searches)}
	for s := 0; s < sc.searches; s++ {
		rep, err := c.Search(queries[s], nil)
		out.reports[s], out.errors[s] = rep, err
		if err != nil {
			out.transcript = append(out.transcript, fmt.Sprintf("search %d error: %v\n", s, err)...)
		} else {
			out.transcript = rep.AppendDigest(out.transcript)
		}
		states := c.Health()
		out.health = append(out.health, states)
		for _, st := range states {
			out.transcript = append(out.transcript, byte(st))
		}
		if sc.localWorkEvery > 0 && (s+1)%sc.localWorkEvery == 0 {
			for wi, w := range c.workers {
				if _, err := w.eng.Search(queries[s], nil); err != nil {
					t.Fatalf("local work on worker %d: %v", wi, err)
				}
			}
		}
	}
	return out
}

// assertDeterministic re-runs a scenario and requires a byte-identical
// transcript, health trajectories included: 3 consecutive runs, then one
// run each at GOMAXPROCS 1 and 4.
func assertDeterministic(t *testing.T, sc chaosScenario, want []byte) {
	t.Helper()
	for run := 0; run < 2; run++ {
		if got := runChaos(t, sc).transcript; !bytes.Equal(got, want) {
			t.Fatalf("run %d transcript differs from first run", run+2)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := runChaos(t, sc).transcript
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d transcript differs", procs)
		}
	}
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			// The headline case: one of four workers dies between the first
			// and second search. Every later search is a partial result that
			// still finds the target.
			name: "kill-one-of-four", workers: 4, refs: 8, searches: 8,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 11, Kill: map[string]uint64{workerName(1): uint64(adds) + 2}}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				first := out.reports[0]
				if first == nil || first.Partial || first.ShardsAnswered != 4 {
					t.Fatalf("pre-kill search degraded: %+v", first)
				}
				for s := 1; s < len(out.reports); s++ {
					rep := out.reports[s]
					if out.errors[s] != nil {
						t.Fatalf("search %d errored: %v", s, out.errors[s])
					}
					if !rep.Partial || rep.ShardsAnswered != 3 || rep.ShardsTotal != 4 {
						t.Fatalf("search %d: partial=%v answered=%d/%d",
							s, rep.Partial, rep.ShardsAnswered, rep.ShardsTotal)
					}
					if rep.PerWorker[1] != -1 {
						t.Fatalf("search %d: dead shard billed latency %v", s, rep.PerWorker[1])
					}
					if rep.BestID != 0 || !rep.Accepted {
						t.Fatalf("search %d lost the target on surviving shards: best=%d", s, rep.BestID)
					}
				}
				if st := out.c.Health()[1]; st != Dead && st != Probing {
					t.Fatalf("killed worker health = %v", st)
				}
				if out.c.Stats().WorkersDead == 0 && out.c.Health()[1] == Dead {
					t.Fatal("stats do not report the dead shard")
				}
			},
		},
		{
			// A minority (two of five) dies at staggered points mid-stream.
			name: "kill-two-of-five", workers: 5, refs: 10, searches: 6,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 12, Kill: map[string]uint64{
					workerName(2): uint64(adds) + 1,
					workerName(4): uint64(adds) + 3,
				}}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				last := out.reports[len(out.reports)-1]
				if last == nil || !last.Partial || last.ShardsAnswered != 3 || last.ShardsTotal != 5 {
					t.Fatalf("final search: %+v (err %v)", last, out.errors[len(out.errors)-1])
				}
				if last.BestID != 0 || !last.Accepted {
					t.Fatalf("majority merge lost the target: %+v", last)
				}
			},
		},
		{
			// Random call drops are absorbed by bounded retries: service
			// stays up, the retry counter ticks.
			name: "drop-retry-storm", workers: 3, refs: 6, searches: 10,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 13, DropRate: 0.25}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				ok := 0
				for s, rep := range out.reports {
					if out.errors[s] == nil && rep.BestID == 0 && rep.Accepted {
						ok++
					}
				}
				if ok < len(out.reports)/2 {
					t.Fatalf("only %d/%d searches survived a 25%% drop rate", ok, len(out.reports))
				}
				if out.c.mWorkerRetries.Value() == 0 {
					t.Fatal("drops never triggered a retry")
				}
			},
		},
		{
			// The full fault mix (drops, hangs, lost replies, latency
			// spikes) over the search path. Enrollment bypasses the
			// transport: retrying a reply-lost Add is not idempotent.
			name: "flaky-mix", workers: 3, refs: 6, searches: 12, directEnroll: true,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 14, DropRate: 0.1, HangRate: 0.05, ReplyLossRate: 0.05, SlowRate: 0.3, SlowUS: 2000}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				ok := 0
				for s, rep := range out.reports {
					if out.errors[s] == nil && rep.BestID == 0 && rep.Accepted {
						ok++
					}
				}
				if ok < len(out.reports)/2 {
					t.Fatalf("only %d/%d searches survived the fault mix", ok, len(out.reports))
				}
			},
		},
		{
			// Permanent latency spikes well inside the call deadline: every
			// call straggles, none fails, and the spike is billed.
			name: "latency-only", workers: 3, refs: 6, searches: 4, directEnroll: true,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 15, SlowRate: 1, SlowUS: 3000}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				for s, rep := range out.reports {
					if out.errors[s] != nil || rep.Partial {
						t.Fatalf("search %d degraded under pure latency faults: %+v (%v)", s, rep, out.errors[s])
					}
					// A spike adds SlowUS·[0.5, 1.5) to every call.
					if rep.ElapsedUS < 1500 {
						t.Fatalf("search %d billed %v µs, under the smallest injected spike", s, rep.ElapsedUS)
					}
				}
				if n := out.c.mWorkerFailures.Value(); n != 0 {
					t.Fatalf("pure latency faults failed %v calls", n)
				}
			},
		},
		{
			// Losing every shard fails the search outright (no silent empty
			// answers), and the error is itself deterministic.
			name: "all-dead-errors", workers: 3, refs: 6, searches: 4,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 16, Kill: map[string]uint64{
					workerName(0): uint64(adds) + 1,
					workerName(1): uint64(adds) + 1,
					workerName(2): uint64(adds) + 1,
				}}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				for s, err := range out.errors {
					if err == nil {
						t.Fatalf("search %d succeeded with every shard dead", s)
					}
				}
			},
		},
		{
			// A MinShards quorum turns graceful degradation back into hard
			// failure when coverage drops below the floor.
			name: "quorum-too-strict", workers: 4, refs: 8, searches: 3, minShards: 4,
			plan: func(adds int) faultsim.Plan {
				return faultsim.Plan{Seed: 17, Kill: map[string]uint64{workerName(3): uint64(adds) + 1}}
			},
			check: func(t *testing.T, out *chaosOutcome) {
				for s, err := range out.errors {
					if err == nil {
						t.Fatalf("search %d passed below the shard quorum", s)
					}
				}
			},
		},
	}
}

// composedFaultScenario composes two faults in one run: worker-1 dies for
// good a few searches past enrollment, and worker-2 is partitioned from
// just after enrollment (clock 0 < 1) until its virtual clock passes
// 400 µs. Refused calls freeze that clock; the local work every 8 searches
// carries it past the window, and a probe then resurrects the worker.
func composedFaultScenario() chaosScenario {
	return chaosScenario{
		name: "kill-and-partition-heal", workers: 3, refs: 6, searches: 70, localWorkEvery: 8,
		plan: func(adds int) faultsim.Plan {
			return faultsim.Plan{
				Seed:       34,
				Kill:       map[string]uint64{workerName(1): uint64(adds) + 6},
				Partitions: []faultsim.Partition{{Peer: workerName(2), FromUS: 1, ToUS: 400}},
			}
		},
		check: func(t *testing.T, out *chaosOutcome) {
			state := func(s, w int) HealthState { return out.health[s][w] }
			last := len(out.health) - 1
			// Worker-1 (killed) leaves Healthy, is declared Dead and
			// never reports Healthy again.
			firstDown := slices.IndexFunc(out.health, func(st []HealthState) bool { return st[1] != Healthy })
			if firstDown < 0 {
				t.Fatal("killed worker never left Healthy")
			}
			sawDead := false
			for s := firstDown; s <= last; s++ {
				if state(s, 1) == Healthy {
					t.Fatalf("killed worker returned to Healthy at search %d", s)
				}
				sawDead = sawDead || state(s, 1) == Dead
			}
			if !sawDead {
				t.Fatal("killed worker was never declared Dead")
			}
			// Worker-2 (partitioned) goes down, heals before the end
			// and stays healed.
			lastDown := -1
			for s := range out.health {
				if state(s, 2) != Healthy {
					lastDown = s
				}
			}
			if lastDown < 0 {
				t.Fatal("partition never took worker-2 out")
			}
			if lastDown == last {
				t.Fatalf("partitioned worker never healed (still %v at the end)", state(last, 2))
			}
			// Worker-0 carries the whole run untouched, and every
			// search succeeds: one shard while both faults hold, two
			// once worker-2 is back.
			minShards := 3
			for s, rep := range out.reports {
				if state(s, 0) != Healthy {
					t.Fatalf("unfaulted worker-0 degraded at search %d: %v", s, state(s, 0))
				}
				if out.errors[s] != nil {
					t.Fatalf("search %d errored: %v", s, out.errors[s])
				}
				minShards = min(minShards, rep.ShardsAnswered)
			}
			if minShards != 1 {
				t.Fatalf("double-fault phase answered %d shards at minimum, want 1", minShards)
			}
			if got := out.reports[last].ShardsAnswered; got != 2 {
				t.Fatalf("final search answered %d shards, want 2 (worker-1 dead, worker-2 healed)", got)
			}
		},
	}
}

// TestChaosDeterministicPartialResults is the acceptance gate: every
// scenario's full transcript (wire-encoded summaries and error strings) is
// byte-identical across 3 consecutive runs and at GOMAXPROCS ∈ {1, 4}, and
// satisfies its scenario-specific degradation properties.
func TestChaosDeterministicPartialResults(t *testing.T) {
	for _, sc := range chaosScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			first := runChaos(t, sc)
			if sc.check != nil {
				sc.check(t, first)
			}
			if len(first.transcript) == 0 {
				t.Fatal("empty transcript")
			}
			assertDeterministic(t, sc, first.transcript)
		})
	}
}

// TestChaosComposedFaults runs composedFaultScenario and checks its health
// trajectories: the killed worker never reports Healthy again once it
// leaves, the partitioned one heals and stays healed, and every search
// succeeds on one shard while both faults hold and on two at the end.
func TestChaosComposedFaults(t *testing.T) {
	sc := composedFaultScenario()
	sc.check(t, runChaos(t, sc))
}

// TestChaosComposedFaultsBitIdentical holds composedFaultScenario's
// transcript, the per-search health states included, byte-identical across
// 3 runs and at GOMAXPROCS 1 and 4.
func TestChaosComposedFaultsBitIdentical(t *testing.T) {
	sc := composedFaultScenario()
	assertDeterministic(t, sc, runChaos(t, sc).transcript)
}

// TestChaosZeroFaultBitIdentical pins the zero-overhead contract: a cluster
// carrying a zero-rate injector (the full transport seam active, no faults
// scheduled) produces byte-for-byte the results of a cluster with no
// injector at all (the direct pre-fault-layer path).
func TestChaosZeroFaultBitIdentical(t *testing.T) {
	run := func(fault *faultsim.Injector) []byte {
		rng := rand.New(rand.NewSource(41))
		c, err := New(Config{Workers: 3, Engine: smallEngine(), fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*blas.Matrix, 6)
		for i := range refs {
			refs[i] = unitFeatures(rng, 16, 24)
			if err := c.Add(i, refs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		var transcript []byte
		for _, target := range []int{0, 3, 5} {
			rep, err := c.Search(queryFor(rng, refs[target], 32), nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Partial || rep.ShardsAnswered != 3 {
				t.Fatalf("degradation without faults: %+v", rep)
			}
			transcript = rep.AppendDigest(transcript)
		}
		return transcript
	}

	direct := run(nil)
	seamed := run(faultsim.New(faultsim.Plan{Seed: 99}))
	if !bytes.Equal(direct, seamed) {
		t.Fatal("zero-fault injector path diverges from the direct path")
	}
}

// TestChaosBatchPartial verifies SearchBatch degrades like Search: a dead
// shard marks every per-query report partial, deterministically.
func TestChaosBatchPartial(t *testing.T) {
	sc := chaosScenario{workers: 3, refs: 6, searches: 0}
	run := func() ([]*Report, []byte) {
		rng := rand.New(rand.NewSource(43))
		refs := make([]*blas.Matrix, sc.refs)
		for i := range refs {
			refs[i] = unitFeatures(rng, 16, 24)
		}
		adds := sc.refs / sc.workers
		c, err := New(Config{Workers: sc.workers, Engine: smallEngine(),
			fault: faultsim.New(faultsim.Plan{Seed: 44, Kill: map[string]uint64{workerName(2): uint64(adds) + 1}})})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range refs {
			if err := c.Add(i, f, nil); err != nil {
				t.Fatal(err)
			}
		}
		queries := []*blas.Matrix{queryFor(rng, refs[0], 32), queryFor(rng, refs[1], 32)}
		reps, err := c.SearchBatch(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		var transcript []byte
		for _, rep := range reps {
			transcript = rep.AppendDigest(transcript)
		}
		return reps, transcript
	}

	reps, first := run()
	for qi, rep := range reps {
		if !rep.Partial || rep.ShardsAnswered != 2 || rep.ShardsTotal != 3 {
			t.Fatalf("query %d: partial=%v answered=%d/%d", qi, rep.Partial, rep.ShardsAnswered, rep.ShardsTotal)
		}
		if rep.BestID != qi || !rep.Accepted {
			t.Fatalf("query %d merged wrong: best=%d accepted=%v", qi, rep.BestID, rep.Accepted)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		_, got := run()
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(got, first) {
			t.Fatalf("GOMAXPROCS=%d batch transcript differs", procs)
		}
	}
}

// TestChaosPartitionHealsAndProbeResurrects drives the full failure
// detector loop: a virtual-clock partition window takes a worker out,
// repeated failures mark it Dead, probe calls keep testing it, and once the
// worker's clock passes the window the probe succeeds and the worker
// returns to Healthy (full, non-partial service).
func TestChaosPartitionHealsAndProbeResurrects(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	refs := make([]*blas.Matrix, 4)
	for i := range refs {
		refs[i] = unitFeatures(rng, 16, 24)
	}
	query := queryFor(rng, refs[0], 32)

	// The window opens at virtual time zero and is tiny: any simulated work
	// on the worker carries its clock past it, but while every call is
	// refused the clock is frozen and the partition holds.
	c, err := New(Config{
		Workers: 2, Engine: smallEngine(),
		fault: faultsim.New(faultsim.Plan{Seed: 46,
			Partitions: []faultsim.Partition{{Peer: workerName(1), FromUS: 0, ToUS: 1}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Enroll directly: the partition is live from t=0 and would refuse adds.
	for i, f := range refs {
		if err := c.workers[i%2].eng.Add(i, f, nil); err != nil {
			t.Fatal(err)
		}
	}

	// search runs one search, requires the given shard coverage and
	// worker-1 state, and returns the injected-fault failure count so far
	// (a skipped call fails nothing; a call or probe into the partition
	// fails once).
	search := func(step string, answered int, want HealthState) float64 {
		t.Helper()
		rep, err := c.Search(query, nil)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if rep.ShardsAnswered != answered || rep.Partial != (answered < 2) {
			t.Fatalf("%s: partial=%v answered=%d, want %d", step, rep.Partial, rep.ShardsAnswered, answered)
		}
		if st := c.Health()[1]; st != want {
			t.Fatalf("%s: worker-1 = %v, want %v", step, st, want)
		}
		return c.mWorkerFailures.Value()
	}

	// Searches 1..3 fail on worker-1 (partitioned): the first marks it
	// Suspect and the third, deadAfter, kills it.
	search("failure 1", 1, Suspect)
	search("failure 2", 1, Suspect)
	if n := search("failure 3", 1, Dead); n != 3 {
		t.Fatalf("%v call failures after 3 refused searches, want 3", n)
	}
	// Dead, the next three searches skip worker-1 and the fourth probes
	// it; the probe still lands inside the window, so the worker goes back
	// to Dead and service stays partial.
	for i := 1; i < 4; i++ {
		if n := search(fmt.Sprintf("skip %d", i), 1, Dead); n != 3 {
			t.Fatalf("skipped search %d reached worker-1 (%v failures)", i, n)
		}
	}
	if n := search("probe into the partition", 1, Dead); n != 4 {
		t.Fatalf("4th skipped search did not probe (%v failures, want 4)", n)
	}

	// The worker performs local simulated work: its virtual clock moves
	// past the window and the partition heals. Three more skips, and the
	// next probe succeeds: full, non-partial service.
	if _, err := c.workers[1].eng.Search(query, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		search(fmt.Sprintf("skip %d after the heal", i), 1, Dead)
	}
	if n := search("probe after the heal", 2, Healthy); n != 4 {
		t.Fatalf("successful probe counted a failure (%v, want 4)", n)
	}
}

// TestSummaryGoldenBytes pins the digest the transcripts are built from:
// digests are only ever compared, so the contract is the bytes themselves.
func TestSummaryGoldenBytes(t *testing.T) {
	rep := &Report{
		Report: engine.Report{
			BestID: -1, Score: 42, Accepted: true, Compared: 1000, ElapsedUS: 1234.5,
			Ranked: []match.SearchResult{{RefID: 7, Score: 40}, {RefID: -1, Score: 2}},
		},
		Partial: true, ShardsAnswered: 3, ShardsTotal: 4,
	}
	const want = "53525854" + "01" + // magic, version
		"01" + "54" + "03" + // best id -1, score 42 (zigzag), accepted|partial
		"03" + "04" + "d00f" + // shards answered/total, compared 1000 (zigzag)
		"00000000004a9340" + // elapsed 1234.5 µs, float64 bits little-endian
		"02" + "0e50" + "0104" // two ranked entries
	if got := hex.EncodeToString(rep.AppendDigest(nil)); got != want {
		t.Fatalf("summary encoding changed:\n got %s\nwant %s", got, want)
	}
}
