// Package analysis is the repo's own static-analysis suite: a stdlib-only
// analyzer framework (go/parser + go/ast + go/types with manual package
// loading — no golang.org/x/tools) plus the analyzers that turn this
// codebase's load-bearing conventions into build-time errors.
//
// DEP+BURST's evaluation rests on reproducible per-quantum numbers: byte
// identical exports across -j settings and cache replays, zero-allocation
// simulator hot loops, context propagation from the HTTP layer down into
// the sampling loop, and lock discipline in the shared service state. The
// test suite can probe single instances of those invariants; the analyzers
// prove the whole class at lint time:
//
//	determinism  no wall-clock reads, global math/rand, or unsorted map
//	             iteration in code that feeds experiment or server output
//	hotpath      //depburst:hotpath functions (and their statically
//	             resolved module callees) must not allocate
//	ctxflow      a function holding a context.Context must pass it on —
//	             no context.Background() detours, no dropping ctx when a
//	             Context-taking sibling of the callee exists
//	goldenio     exported bytes (goldens, metrics and server documents) never
//	             come from marshalling maps; use sorted slices or obsio
//	lockdisc     //depburst:guardedby fields are only touched with their
//	             mutex held; RWMutex writes never happen under RLock
//
// Goroutine lifetimes, typed-atomic copies, channel protocols and the
// nil-registry contract are held elsewhere: `go vet` (copylocks), the
// race detector, the package tests and a reflection test in
// internal/metrics.
//
// Sanctioned exceptions are annotated in the source: //depburst:allow
// <analyzer> <reason> suppresses one line, //depburst:hotpath marks roots,
// and //depburst:guardedby and //depburst:locked declare lock discipline.
// The driver is exposed as `depburst lint`, and the suite's own test wall
// self-runs the analyzers over this repository, so the tree is lint-clean
// by construction.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding. File is module-root-relative; the
// JSON field names are pinned by the driver's schema test.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	// Hint is a one-line suggested fix, printed under -fix-hints.
	Hint string `json:"hint,omitempty"`
}

// Pos renders the diagnostic's file:line:col prefix.
func (d Diagnostic) Pos() string {
	return fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col)
}

// Analyzer is one lint pass. Run inspects pass.Pkg and reports through the
// pass; the driver invokes it once per matched package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) execution: the package under
// analysis, the loader for cross-package resolution (callee bodies,
// annotations), and the diagnostic sink.
type Pass struct {
	An  *Analyzer
	L   *Loader
	Pkg *Package

	sink *[]Diagnostic
}

// Reportf files a diagnostic at pos unless an //depburst:allow directive
// sanctions that line. hint may be empty.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := p.L.Fset.Position(pos)
	if p.L.allowed(position.Filename, position.Line, p.An.Name) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.An.Name,
		File:     p.L.rel(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Hint:     hint,
	})
}

// All returns the full analyzer suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		HotPath,
		CtxFlow,
		GoldenIO,
		LockDisc,
	}
}

// ByName resolves a comma-separated analyzer selection against the suite.
// An unknown or empty name is an error that lists the suite.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, 0, len(All()))
			for _, a := range All() {
				known = append(known, a.Name)
			}
			return nil, fmt.Errorf("analysis: unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
	}
	return out, nil
}

// Run executes the given analyzers over every package matching patterns in
// the module rooted at dir. Diagnostics come back sorted by position, then
// analyzer, and exact duplicates (the same finding reached from two hotpath
// roots) are collapsed — the order is deterministic by construction, since
// the lint output is itself an export the repo's invariants apply to.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Match(patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(l, pkgs, analyzers), nil
}

// RunPackages executes analyzers over already-loaded packages.
func RunPackages(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{An: a, L: l, Pkg: pkg, sink: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
