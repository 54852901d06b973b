package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer started
	Parent     int           // index of the enclosing span, -1 for a root
	Req        int           // request id within a serve batch, -1 otherwise
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed runs share the instrumented code paths.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed records one root span around fn.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name, -1, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.End - s.Start - covered(children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi]. Children of one span may overlap when they ran in parallel.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans in the Chrome trace-event format, which Perfetto
// and chrome://tracing open directly.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: rootOf(t.spans, i),
			Args: map[string]int{"id": i, "parent": s.Parent, "req": s.Req}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootOf names a span's track: the index of its root span.
func rootOf(spans []span, i int) int {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return i
}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"bench", "sim", "experiments", "report", "simcache", "core", "client", "server", "surrogate"}
