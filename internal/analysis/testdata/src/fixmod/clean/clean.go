// Package clean is the negative fixture: every analyzer must pass it with
// zero diagnostics. It leans on each analyzer's sanctioned idioms at once —
// sorted map exports, reusing hot-path storage, threaded contexts, and
// struct-shaped documents.
package clean

import (
	"context"
	"encoding/json"
	"sort"
)

// Export is the canonical deterministic map export.
func Export(m map[string]int) ([]byte, error) {
	type kv struct {
		K string `json:"k"`
		V int    `json:"v"`
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]kv, 0, len(keys))
	for _, k := range keys {
		out = append(out, kv{K: k, V: m[k]})
	}
	return json.Marshal(out)
}

// Engine reuses pooled storage on its hot path.
type Engine struct {
	q    []int
	free []int
}

// Push is hot and allocation-free in steady state.
//
//depburst:hotpath
func (e *Engine) Push(v int) {
	if n := len(e.free); n > 0 {
		e.free = e.free[:n-1]
	}
	e.q = append(e.q, v)
}

// Runner threads its context everywhere.
type Runner struct{}

// Run is the context-free core.
func (r *Runner) Run() int { return 1 }

// RunContext wraps Run, checking the deadline first.
func (r *Runner) RunContext(ctx context.Context) int {
	if ctx != nil && ctx.Err() != nil {
		return 0
	}
	return r.Run()
}

// Drive passes ctx through.
func Drive(ctx context.Context, r *Runner) int {
	return r.RunContext(ctx)
}
