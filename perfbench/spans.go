package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; Parent links a call to the span that made it.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // −1 for a root span
	Op     int    `json:"op"`     // op id, −1 for set-up and probe spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on. A nil or switched-off tracer
// records nothing and costs one branch per call site.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (−1 when not recording).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// durations returns the durations of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span name, each span's self time in ms: its
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string][]float64 {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perOp returns, per op, the summed duration in ms of its spans with any of
// the given names.
func (t *tracer) perOp(names ...string) []float64 {
	sum := make(map[int]float64)
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n && s.Op >= 0 {
				sum[s.Op] += float64(s.End-s.Start) / 1e6
			}
		}
	}
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, v)
	}
	return out
}
