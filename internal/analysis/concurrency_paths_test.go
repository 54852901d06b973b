package analysis

import (
	"strings"
	"testing"
)

// These tests pin the branch behavior of lockdisc on the statement and
// expression forms the fixtures do not reach: every compound statement kind
// under a held lock, closures in call-argument position, index writes and
// imposter locks. Each source is a complete module; wantFindings asserts
// the exact diagnostics in source order (the driver sorts by position).

func runOn(t *testing.T, src string, ans ...*Analyzer) []Diagnostic {
	t.Helper()
	diags, err := Run(writeModule(t, src), []string{"./..."}, ans)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func wantFindings(t *testing.T, diags []Diagnostic, subs ...string) {
	t.Helper()
	if len(diags) != len(subs) {
		t.Fatalf("got %d findings, want %d:\n%+v", len(diags), len(subs), diags)
	}
	for i, sub := range subs {
		if !strings.Contains(diags[i].Message, sub) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, sub)
		}
	}
}

// TestLockDiscStatementForms drives guarded accesses through every compound
// statement the lexical walker models — switch with init and tag, type
// switch, select, labeled loops, range, for with init/cond/post, deferred
// and spawned calls with guarded arguments, and closures that run
// synchronously inside the locked region (sort.Search comparators,
// immediately-invoked literals). All of it holds the lock, so all of it is
// clean.
func TestLockDiscStatementForms(t *testing.T) {
	src := `package export

import (
	"sort"
	"sync"
)

type table struct {
	mu sync.Mutex
	//depburst:guardedby mu
	m map[string]int
	//depburst:guardedby mu
	n int
}

func (t *table) Forms(k string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch v := t.m[k]; v {
	case 0:
		t.n++
	default:
		t.n = v
	}
	switch x := interface{}(t.n).(type) {
	case int:
		t.n = x
	}
	for i := 0; i < t.n; i++ {
		t.m[k] = i
	}
	for range t.m {
		t.n--
	}
loop:
	for {
		if t.n > 0 {
			break loop
		}
		delete(t.m, k)
	}
	return t.n
}

func (t *table) Wait(ch chan int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case v := <-ch:
		t.n = v
	default:
		t.n++
	}
}

func (t *table) Rank() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sort.Search(8, func(i int) bool { return i >= t.n })
}

func (t *table) Imm() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return func() int { return t.n }()
}

func (t *table) sink(int) {}

func (t *table) Handoff() {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.sink(t.n)
	defer func(v int) { t.sink(v) }(t.n)
	go t.sink(t.n)
}
`
	wantFindings(t, runOn(t, src, LockDisc))
}

// TestLockDiscEscapingClosures: a closure that is stored or deferred may run
// after the lock is released, so its guarded accesses are analyzed
// lock-free — unlike the call-argument closures above. A //depburst:locked
// directive on a plain function (no receiver to key the mutex to) protects
// nothing.
func TestLockDiscEscapingClosures(t *testing.T) {
	src := `package export

import "sync"

type table struct {
	mu sync.Mutex
	//depburst:guardedby mu
	n int
}

func (t *table) Stored() func() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := func() int { return t.n }
	return f
}

func (t *table) Cleanup() {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer func() { t.n = 0 }()
}

//depburst:locked mu
func orphan(t *table) {
	t.n++
}
`
	wantFindings(t, runOn(t, src, LockDisc),
		"read of n guarded by t.mu without holding the lock",
		"write to n guarded by t.mu without holding the lock",
		"write to n guarded by t.mu without holding the lock",
	)
}

// TestLockDiscIndexAndImposterLock: taking the address of a guarded slice
// element is a write (the pointer escapes the lock), element increments
// under the lock are fine, and a Lock method on a non-sync type does not
// satisfy the guard.
func TestLockDiscIndexAndImposterLock(t *testing.T) {
	src := `package export

import "sync"

type grid struct {
	mu sync.Mutex
	//depburst:guardedby mu
	cells []int
}

func (g *grid) Pin(i int) *int {
	return &g.cells[i]
}

func (g *grid) Bump(i int) {
	g.mu.Lock()
	g.cells[i]++
	g.mu.Unlock()
}

type fakeLock struct{}

func (fakeLock) Lock()   {}
func (fakeLock) Unlock() {}

type odd struct {
	fl fakeLock
	mu sync.Mutex
	//depburst:guardedby mu
	x int
}

func (o *odd) Use() {
	o.fl.Lock()
	o.x++
	o.fl.Unlock()
}
`
	wantFindings(t, runOn(t, src, LockDisc),
		"write to cells guarded by g.mu without holding the lock",
		"write to x guarded by o.mu without holding the lock",
	)
}
