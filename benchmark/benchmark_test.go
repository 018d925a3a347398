package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// The percentile a timing is quoted at needs at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true}, {199, 90, true},
		{200, 95, true}, {500, 98, true}, {1000, 99, true}, {2000, 99.5, true}, {10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	sorted := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 100: 50, 90: 46, 25: 20} {
		if got := percentile(sorted, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// Self time is the span minus what its children cover: overlaps count once,
// overruns are clipped, and the tracer lays sequential children end to end
// and concurrent ones from the parent's start.
func TestSelfTime(t *testing.T) {
	parent := span{StartUS: 100, DurUS: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"none", nil, 100},
		{"sequential", []span{{StartUS: 100, DurUS: 30}, {StartUS: 130, DurUS: 20}}, 50},
		{"overlapping", []span{{StartUS: 100, DurUS: 60}, {StartUS: 120, DurUS: 60}}, 20},
		{"nested", []span{{StartUS: 110, DurUS: 80}, {StartUS: 120, DurUS: 10}}, 20},
		{"overrun", []span{{StartUS: 150, DurUS: 500}}, 50},
		{"early", []span{{StartUS: 0, DurUS: 110}}, 90},
		{"outside", []span{{StartUS: 300, DurUS: 10}}, 100},
	} {
		if got := selfUS(parent, c.children); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}

	tr := &tracer{}
	root := tr.root(7, "http", "roundtrip", 100e3)
	a := tr.child(root, "http", "decode", 10e3)
	b := tr.child(root, "cluster", "Search", 70e3)
	s0 := tr.parallel(b, "engine", "shard0", 60e3)
	s1 := tr.parallel(b, "engine", "shard1", 40e3)
	if got := tr.spans[b-1].StartUS; got != 10 {
		t.Errorf("second sequential child starts at %v, want 10", got)
	}
	if tr.spans[s0-1].StartUS != 10 || tr.spans[s1-1].StartUS != 10 {
		t.Errorf("concurrent children start at %v and %v, want 10", tr.spans[s0-1].StartUS, tr.spans[s1-1].StartUS)
	}
	if got := tr.self(root); got != 20 {
		t.Errorf("root self = %v, want 20", got)
	}
	if got := tr.self(b); got != 10 {
		t.Errorf("search self = %v (slowest shard sets it), want 10", got)
	}
	if got := tr.self(a); got != 10 {
		t.Errorf("leaf self = %v, want its duration 10", got)
	}
	if tr.spans[s1-1].Request != 7 {
		t.Errorf("child request = %d, want the root's 7", tr.spans[s1-1].Request)
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range []string{"rest_search_resident", "rest_batch_churn"} {
		s, _ := findWorkload(name)
		a, b, c := s.generate(11), s.generate(11), s.generate(12)
		if !reflect.DeepEqual(a.truth, b.truth) || !reflect.DeepEqual(a.bodies, b.bodies) {
			t.Errorf("%s: two generations from seed 11 differ", name)
		}
		if reflect.DeepEqual(a.bodies, c.bodies) {
			t.Errorf("%s: seeds 11 and 12 give the same request bodies", name)
		}
		if !bytes.Equal(a.writeBody(20, 3), b.writeBody(20, 3)) || bytes.Equal(a.writeBody(20, 3), a.writeBody(20, 4)) {
			t.Errorf("%s: write bodies must depend on exactly (seed, id, version)", name)
		}
	}
	ref := refDescriptors(5, 9, 0)
	q := queryDescriptors(5, 3, ref)
	if !reflect.DeepEqual(q.Data, queryDescriptors(5, 3, ref).Data) {
		t.Error("queryDescriptors is not a function of its arguments")
	}
	for j := 0; j < q.Cols; j++ {
		var n2 float64
		for _, v := range q.Col(j) {
			if v < 0 {
				t.Fatalf("query column %d has a negative element", j)
			}
			n2 += float64(v) * float64(v)
		}
		if math.Abs(n2-1) > 1e-4 {
			t.Fatalf("query column %d has squared norm %v, want 1", j, n2)
		}
	}
	for _, kp := range keypoints(5, 1, 100) {
		if kp.X < kpLo || kp.X > kpHi || kp.Y < kpLo || kp.Y > kpHi {
			t.Fatalf("keypoint (%v, %v) outside [%v, %v]", kp.X, kp.Y, kpLo, kpHi)
		}
	}
}

// BENCHMARK.json and the tables in metrics.go and workload.go name exactly
// the same workloads and metrics, with the same units and reasons.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range file.Workloads {
		got = append(got, "workload "+w.Name+": "+w.Why)
	}
	for _, m := range file.EndToEnd {
		got = append(got, "end_to_end "+m.Name+" "+m.Unit)
	}
	for _, m := range file.PerLayer {
		got = append(got, "per_layer "+m.Name+" "+m.Unit)
	}
	for _, w := range workloads {
		want = append(want, "workload "+w.name+": "+w.why)
	}
	for _, m := range endToEnd {
		want = append(want, "end_to_end "+m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		want = append(want, "per_layer "+m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the Go tables differ:\n json: %s\n   go: %s", strings.Join(got, "\n       "), strings.Join(want, "\n       "))
	}
	seen := map[string]bool{}
	for _, line := range want {
		name := strings.Fields(line)[1]
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
}

// A short run of every workload through every phase, traced pass included:
// outputs verify, every metric of both tables is printed by name, and the
// result line carries exactly the per-layer set. The big index is cut to a
// tenth (still two of four batches per shard host-resident) to keep this
// near a minute and a half; -short skips it.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	for _, s := range workloads {
		s := s
		t.Run(s.name, func(t *testing.T) {
			if s.refs > 256 {
				s.refs = 256
			}
			o := options{seed: 3, seconds: 1, trace: true, selfcheck: true, traceOut: t.TempDir() + "/trace"}
			res, err := runWorkload(s, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Errorf("verify: %s", p)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if v := res.values[d.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
				}
			}
			if s.churn != (res.values["enroll_p50_ms"] > 0) {
				t.Errorf("enroll_p50_ms = %v on churn=%t", res.values["enroll_p50_ms"], s.churn)
			}
			known := map[string]bool{}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				known[d.name] = true
			}
			for name := range res.values {
				if !known[name] {
					t.Errorf("measured %q, which neither table names", name)
				}
			}

			out := res.format(o)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if !strings.Contains(out, "\n"+d.name+" ") {
					t.Errorf("table does not print %s", d.name)
				}
			}
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || line.Failed == nil {
				t.Errorf("result line lacks correct/attempted/failed or is incorrect: %s", lines[len(lines)-1][:80])
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("result line has %d metrics, want the %d per-layer ones", len(line.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := line.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("result line lacks %s in %s", d.name, d.unit)
				}
			}
			if _, err := os.Stat(o.traceOut + "." + s.name + ".json"); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}
