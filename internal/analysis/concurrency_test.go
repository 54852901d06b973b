package analysis

import (
	"strings"
	"testing"
)

// The lock-discipline mutation tests follow TestMutationUnsortedExport: each
// source is correct as written and clean under lockdisc; deleting one
// load-bearing line (a Lock call, a //depburst:locked directive) or turning a
// read into a write must produce exactly one lockdisc finding.

const lockSrc = `package export

import "sync"

type counter struct {
	mu sync.Mutex
	//depburst:guardedby mu
	n int
}

func (c *counter) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}
`

func TestMutationDeletedLock(t *testing.T) {
	clean := writeModule(t, lockSrc)
	diags, err := Run(clean, []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("locked counter should be clean, got: %+v", diags)
	}

	mutated := strings.Replace(lockSrc, "\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n", "", 1)
	if mutated == lockSrc {
		t.Fatal("mutation did not apply")
	}
	diags, err = Run(writeModule(t, mutated), []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "lockdisc" {
		t.Fatalf("deleting the Lock call should yield exactly one lockdisc finding, got: %+v", diags)
	}
	if !strings.Contains(diags[0].Message, "write to n") {
		t.Errorf("finding should name the unguarded write: %s", diags[0].Message)
	}
}

// TestLockedHelperTrusted pins the //depburst:locked contract: the helper
// body is analyzed with the receiver's mutex held, and removing the
// directive immediately re-flags the access.
func TestLockedHelperTrusted(t *testing.T) {
	src := `package export

import "sync"

type reg struct {
	mu sync.Mutex
	//depburst:guardedby mu
	m map[string]int
}

func (r *reg) Get(k string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(k)
}

//depburst:locked mu
func (r *reg) get(k string) int {
	return r.m[k]
}
`
	diags, err := Run(writeModule(t, src), []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("locked helper should be trusted, got: %+v", diags)
	}

	mutated := strings.Replace(src, "//depburst:locked mu\n", "", 1)
	diags, err = Run(writeModule(t, mutated), []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("unannotated helper should be flagged once, got: %+v", diags)
	}
}

// TestRWLockUpgradeRequired pins the RWMutex rule: reads pass under RLock,
// and swapping one read for a write under the same RLock is flagged as an
// upgrade violation, not a generic missing-lock finding.
func TestRWLockUpgradeRequired(t *testing.T) {
	src := `package export

import "sync"

type gauges struct {
	mu sync.RWMutex
	//depburst:guardedby mu
	v float64
}

func (g *gauges) Snapshot() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.v
}
`
	diags, err := Run(writeModule(t, src), []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("RLock read should be clean, got: %+v", diags)
	}

	mutated := strings.Replace(src, "return g.v", "g.v = 0\n\treturn g.v", 1)
	diags, err = Run(writeModule(t, mutated), []string{"./..."}, []*Analyzer{LockDisc})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "under RLock only") {
		t.Fatalf("write under RLock should be flagged as an upgrade violation, got: %+v", diags)
	}
}
