package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public functions. The benchmark
// measures every layer from outside: the same pooled query is replayed at
// each boundary on the way down (socket, handler, coalescer, coordinator,
// each shard, kernels), one replay after another. In the trace a replayed
// child is laid out inside its parent's interval — sequential children end
// to end, concurrent children from the same start — so the tree reads like
// a nested trace although the calls ran at different moments.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Request int     `json:"request"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // offset from the request's root span
	DurUS   float64 `json:"dur_us"`
	// Replays is how many calls the duration is the median of (kernel
	// spans are shared by every request and measured once).
	Replays int `json:"replays,omitempty"`
}

func (s span) end() float64 { return s.StartUS + s.DurUS }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// root opens a new request tree.
func (t *tracer) root(request int, layer, name string, d time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Request: request, Layer: layer, Name: name, DurUS: us(d)})
	return len(t.spans)
}

// child adds a span under parent, after the parent's existing children.
func (t *tracer) child(parent int, layer, name string, d time.Duration) int {
	return t.place(parent, layer, name, us(d), false, 1)
}

// parallel adds a span under parent that starts when the parent does, as
// the coordinator's scatter to every shard at once.
func (t *tracer) parallel(parent int, layer, name string, d time.Duration) int {
	return t.place(parent, layer, name, us(d), true, 1)
}

func (t *tracer) place(parent int, layer, name string, durUS float64, concurrent bool, replays int) int {
	p := t.spans[parent-1]
	start := p.StartUS
	if !concurrent {
		for _, c := range t.spans {
			if c.Parent == parent && c.end() > start {
				start = c.end()
			}
		}
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: p.Request,
		Layer: layer, Name: name, StartUS: start, DurUS: durUS, Replays: replays})
	return len(t.spans)
}

// selfUS is a span's duration minus the part of its interval its direct
// children cover: overlapping children count once and a child that overruns
// the parent is clipped to it.
func selfUS(parent span, children []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.StartUS, c.end()
		if lo < parent.StartUS {
			lo = parent.StartUS
		}
		if hi > parent.end() {
			hi = parent.end()
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := 0.0, parent.StartUS
	for _, v := range ivs {
		if v.lo > edge {
			edge = v.lo
		}
		if v.hi > edge {
			covered += v.hi - edge
			edge = v.hi
		}
	}
	if covered >= parent.DurUS { // also absorbs the rounding of the sums above
		return 0
	}
	return parent.DurUS - covered
}

// self returns the self time of span id within this trace.
func (t *tracer) self(id int) float64 {
	var children []span
	for _, c := range t.spans {
		if c.Parent == id {
			children = append(children, c)
		}
	}
	return selfUS(t.spans[id-1], children)
}

// traceFile is what -trace-out holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Counts   map[string]float64 `json:"counts"` // the per-layer metrics of the run
}

func writeTrace(path string, f traceFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
