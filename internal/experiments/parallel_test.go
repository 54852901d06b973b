package experiments

import (
	"sync"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
)

// TestTruthSingleflight: concurrent callers asking for the same key must
// share ONE in-flight simulation — every caller gets the same result
// pointer. (The pre-singleflight Runner released its lock during the run,
// so concurrent callers each executed the full simulation.)
func TestTruthSingleflight(t *testing.T) {
	r := NewRunnerWorkers(4)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Truth(spec, 1000)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct result pointer: the run was duplicated", i)
		}
	}
}

// TestCoRunTruthSingleflight covers the same gap for consolidated pairs.
func TestCoRunTruthSingleflight(t *testing.T) {
	r := NewRunnerWorkers(4)
	a, _ := dacapo.ByName("pmd.scale")
	b, _ := dacapo.ByName("avrora")
	const callers = 4
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.coRunTruth(a, b, FMax)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("co-run caller %d duplicated the simulation", i)
		}
	}
}

// TestManagedRunSingleflight: governed runs are memoised too — the same
// (spec, threshold) pair is shared across Fig6/Fig7/PerCore/Feedback.
func TestManagedRunSingleflight(t *testing.T) {
	r := NewRunnerWorkers(4)
	spec, _ := dacapo.ByName("pmd.scale")
	const callers = 4
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = r.ManagedRun(spec, 0.10)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("managed-run caller %d duplicated the simulation", i)
		}
	}
	// Distinct tuning parameters must NOT share an entry.
	hold, _ := r.managedRun(spec, 0.10, 4, r.Base.Quantum)
	if hold == results[0] {
		t.Error("hold-off 4 shares the hold-off 1 cache entry")
	}
	q, _ := r.managedRun(spec, 0.10, 1, r.Base.Quantum*2)
	if q == results[0] || q == hold {
		t.Error("quantum variant shares another entry")
	}
}

// TestFanOutPanicPropagates: a panic inside a fanned-out closure must reach
// the caller (and not kill the process from a bare goroutine).
func TestFanOutPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunnerWorkers(workers)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				}
			}()
			r.FanOut(
				func() {},
				func() { panic("boom") },
				func() {})
		}()
	}
}

// TestDerivedRunnerSharesMemo: a copy of a Runner shares the worker pool
// (one global simulation cap) and the memo; with the same Base it shares
// the entry, and a changed Base keys a separate one.
func TestDerivedRunnerSharesMemo(t *testing.T) {
	r := NewRunnerWorkers(3)
	d := *r
	if d.sem != r.sem || d.workers != r.workers {
		t.Error("derived Runner did not share the worker pool")
	}
	spec, _ := dacapo.ByName("pmd.scale")
	a := r.Truth(spec, 1000)
	if b := d.Truth(spec, 1000); b != a {
		t.Error("same Base did not share the memo entry")
	}
	d.Base.Seed++
	if d.Truth(spec, 1000) == a {
		t.Error("changed Base was served the parent's entry")
	}
	if n := r.Simulations(); n != 2 {
		t.Errorf("simulations = %d, want 2", n)
	}
}

// TestPrewarmFillsCache: Prewarm memoises the head of every run and, on
// a Runner without a disk cache, simulates and memoises each in full, so
// row assembly afterwards is pure memo hits in either form.
func TestPrewarmFillsCache(t *testing.T) {
	r := NewRunnerWorkers(4)
	spec, _ := dacapo.ByName("pmd.scale")
	r.Prewarm([]dacapo.Spec{spec}, 1000, 2000)
	r.memo.mu.Lock()
	n := len(r.memo.m)
	r.memo.mu.Unlock()
	if n != 2 {
		t.Fatalf("cache has %d entries after Prewarm, want 2", n)
	}
	a := r.Truth(spec, 1000)
	if a == nil || a.Freq != 1000 {
		t.Error("prewarmed entry is wrong")
	}
	if h := r.TruthSummary(spec, 2000); h.Freq != 2000 || h.Time >= a.Time {
		t.Errorf("prewarmed head is wrong: %+v", h)
	}
	if n := r.Simulations(); n != 2 {
		t.Errorf("simulations = %d, want 2", n)
	}
}

// TestWorkerCountClamped: SetWorkers(0) must still leave a working pool.
func TestWorkerCountClamped(t *testing.T) {
	r := NewRunnerWorkers(0)
	if r.Workers() != 1 {
		t.Fatalf("workers = %d, want clamped to 1", r.Workers())
	}
	spec, _ := dacapo.ByName("pmd.scale")
	if r.Truth(spec, 1000) == nil {
		t.Fatal("serial runner failed")
	}
}
