package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/units"
)

// slowSpec is a run long enough to hold a pool slot for the whole of a
// test; tests cancel it instead of letting it finish.
func slowSpec(t *testing.T) dacapo.Spec {
	t.Helper()
	return memoSpec(t).Scaled(200)
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("%s: not reached in 5s", what)
}

// truthAsync starts TruthCtx(ctx, spec, f) and returns its error channel.
func truthAsync(ctx context.Context, r *Runner, spec dacapo.Spec, f units.Freq) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := r.TruthCtx(ctx, spec, f)
		errc <- err
	}()
	return errc
}

// TestQueueBoundRefuses: with one slot held and the one queue place taken,
// a third distinct run that needs a simulation is refused with
// ErrSaturated, simulates nothing, and leaves its slot retryable.
func TestQueueBoundRefuses(t *testing.T) {
	r := NewRunnerWorkers(1)
	r.SetMaxQueue(1)
	slow := slowSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	running := truthAsync(ctx, r, slow, 1000)
	eventually(t, "first run holds the slot", func() bool { return r.Simulations() == 1 })
	queued := truthAsync(ctx, r, slow, 1100)
	eventually(t, "second run queued", func() bool { return r.Queued() == 1 })

	spec := memoSpec(t)
	if _, err := r.TruthCtx(context.Background(), spec, 1200); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third run: err = %v, want ErrSaturated", err)
	}
	if n, q := r.Simulations(), r.Queued(); n != 1 || q != 1 {
		t.Fatalf("after the refusal: %d simulations, %d queued; want 1 and 1", n, q)
	}

	cancel()
	for _, errc := range []<-chan error{running, queued} {
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run: err = %v, want context.Canceled", err)
		}
	}
	if _, err := r.TruthCtx(context.Background(), spec, 1200); err != nil {
		t.Fatalf("retry of the refused run: %v", err)
	}
	if n, q := r.Simulations(), r.Queued(); n != 2 || q != 0 {
		t.Errorf("after the retry: %d simulations, %d queued; want 2 and 0", n, q)
	}
}

// TestQueuedRunCancelled: a run waiting for a slot whose context is
// cancelled returns that error at once and gives its queue place back.
func TestQueuedRunCancelled(t *testing.T) {
	r := NewRunnerWorkers(1)
	r.SetMaxQueue(1)
	slow := slowSpec(t)
	hold, release := context.WithCancel(context.Background())
	defer release()

	running := truthAsync(hold, r, slow, 1000)
	eventually(t, "first run holds the slot", func() bool { return r.Simulations() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	queued := truthAsync(ctx, r, slow, 1100)
	eventually(t, "second run queued", func() bool { return r.Queued() == 1 })
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued run: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled queued run not released")
	}
	if q := r.Queued(); q != 0 {
		t.Fatalf("queued = %d after the cancel, want 0", q)
	}

	// The freed place takes the next run, which simulates once the slot
	// is free.
	spec := memoSpec(t)
	next := truthAsync(context.Background(), r, spec, 1000)
	eventually(t, "next run queued", func() bool { return r.Queued() == 1 })
	release()
	if err := <-running; !errors.Is(err, context.Canceled) {
		t.Errorf("slot holder: err = %v, want context.Canceled", err)
	}
	if err := <-next; err != nil {
		t.Fatalf("run queued in the freed place: %v", err)
	}
	if n := r.Simulations(); n != 2 {
		t.Errorf("simulations = %d, want 2", n)
	}
}

// TestHitsAndFollowersNeverQueue: with the slot held and the queue full,
// followers of the in-flight run wait without a place and are counted by
// Coalesced, and disk and memo hits are served at once.
func TestHitsAndFollowersNeverQueue(t *testing.T) {
	spec := memoSpec(t)
	r := cachedRunner(1, warmStore(t, spec))
	r.SetMaxQueue(1)
	slow := slowSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	running := truthAsync(ctx, r, slow, 1000)
	eventually(t, "first run holds the slot", func() bool { return r.Simulations() == 1 })
	queued := truthAsync(ctx, r, slow, 1100)
	eventually(t, "second run queued", func() bool { return r.Queued() == 1 })

	const followers = 3
	var follows []<-chan error
	for i := 0; i < followers; i++ {
		follows = append(follows, truthAsync(ctx, r, slow, 1000))
	}
	eventually(t, "followers wait on the flight", func() bool { return r.Coalesced() == followers })
	if q := r.Queued(); q != 1 {
		t.Fatalf("queued = %d with %d followers waiting, want 1", q, followers)
	}

	disk, err := r.TruthCtx(context.Background(), spec, 1000)
	if err != nil {
		t.Fatalf("disk hit with the queue full: %v", err)
	}
	memo, err := r.TruthCtx(context.Background(), spec, 1000)
	if err != nil || memo != disk {
		t.Fatalf("memo hit with the queue full: %v (same result: %v)", err, memo == disk)
	}
	if n := r.Simulations(); n != 1 {
		t.Errorf("simulations = %d, want 1", n)
	}

	cancel()
	for _, errc := range append(follows, running, queued) {
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}
	if n := r.Coalesced(); n != followers {
		t.Errorf("coalesced = %d, want %d", n, followers)
	}
}
