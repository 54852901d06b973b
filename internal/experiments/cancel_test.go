package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"depburst/internal/dacapo"
)

// TestTruthCtxCancelledImmediately: an already-cancelled context never starts
// a simulation.
func TestTruthCtxCancelledImmediately(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.TruthCtx(ctx, spec, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("simulations = %d, want 0", n)
	}
}

// TestCancelledFlightIsRetried: a flight aborted by cancellation must not
// poison the memo slot — the next caller re-executes and succeeds.
func TestCancelledFlightIsRetried(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	if _, err := r.TruthCtx(ctx, spec, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("first call: err = %v, want context.Canceled", err)
	}
	res, err := r.TruthCtx(context.Background(), spec, 1000)
	if err != nil || res == nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	// And the successful flight memoises: same pointer on the next call.
	res2, err := r.TruthCtx(context.Background(), spec, 1000)
	if err != nil || res2 != res {
		t.Fatal("successful retry was not memoised")
	}
}

// TestCancelableFig1StopsPromptly is the server-cancellation contract: a
// cancelled /v1/experiments/fig1 must stop spawning simulations, return
// promptly, and leak no goroutines.
func TestCancelableFig1StopsPromptly(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	// A multi-benchmark scaled suite: enough work that the cancel lands
	// mid-experiment, small enough that the test stays fast.
	suite := []dacapo.Spec{spec, spec.Scaled(2), spec.Scaled(3)}
	suite[1].Name = "pmd.s2"
	suite[2].Name = "pmd.s3"
	r.SetSuite(suite)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	rc := r.WithContext(ctx)
	start := time.Now()
	cerr := Cancelable(func() { rc.Fig1() })
	elapsed := time.Since(start)
	if !errors.Is(cerr, context.Canceled) {
		t.Fatalf("Cancelable returned %v, want context.Canceled", cerr)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled Fig1 took %v; want prompt return", elapsed)
	}
	simsAtReturn := r.Simulations()

	// No further simulations may start after the experiment returned.
	time.Sleep(50 * time.Millisecond)
	if n := r.Simulations(); n != simsAtReturn {
		t.Fatalf("simulations kept spawning after cancel: %d -> %d", simsAtReturn, n)
	}

	// Kernel thread goroutines and fan-out workers must drain.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestCancelableNilError: Cancelable on an un-cancelled experiment returns
// nil and the table is produced.
func TestCancelableNilError(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	r.SetSuite([]dacapo.Spec{spec})
	var ok bool
	if err := Cancelable(func() { ok = r.Fig1() != nil }); err != nil || !ok {
		t.Fatalf("Cancelable = %v, table ok = %v", err, ok)
	}
}

// TestCancelablePassesForeignPanics: only the Runner's cancellation sentinel
// is converted; other panics propagate.
func TestCancelablePassesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	_ = Cancelable(func() { panic("boom") })
}

// TestWithContextSharesMemo: results computed through a binding are visible
// to the base Runner (shared memo), and the simulation counter is global.
func TestWithContextSharesMemo(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	rc := r.WithContext(context.Background())
	a, err := rc.TruthCtx(context.Background(), spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Truth(spec, 1000)
	if a != b {
		t.Fatal("binding and base Runner did not share the memo")
	}
	if n := r.Simulations(); n != 1 {
		t.Fatalf("simulations = %d, want 1", n)
	}
}

// TestInstrumentedRunCancelled: an instrumented run on a cancelled binding
// unwinds with the context's error and, like Truth, starts no simulation.
func TestInstrumentedRunCancelled(t *testing.T) {
	r := NewRunnerWorkers(2)
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Cancelable(func() { r.WithContext(ctx).InstrumentedRun(spec, 1000, false, 0) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("simulations = %d, want 0", n)
	}
}
