package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/simcache"
)

// memoSpec is a short run for the memo-slot tests.
func memoSpec(t *testing.T) dacapo.Spec {
	t.Helper()
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Scaled(0.1)
}

// warmStore returns a store holding the truth run of spec at 1 GHz.
func warmStore(t *testing.T, spec dacapo.Spec) *simcache.Store {
	t.Helper()
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cachedRunner(1, st).Truth(spec, 1000)
	if st.Stats().Puts != 1 {
		t.Fatalf("populating the store wrote %d entries, want 1", st.Stats().Puts)
	}
	return st
}

// reads returns how many entries st has served since Open.
func reads(st *simcache.Store) uint64 { return st.Stats().Hits }

// TestSlotHeadThenFull: a head read decodes the head from disk once; a
// full read of the same slot then reads the entry again, once; after that
// both are memo hits, and the full result's head is the head read first.
func TestSlotHeadThenFull(t *testing.T) {
	spec := memoSpec(t)
	st := warmStore(t, spec)
	r := cachedRunner(2, st)
	base := reads(st)

	head := r.TruthSummary(spec, 1000)
	r.TruthSummary(spec, 1000)
	if n := reads(st) - base; n != 1 {
		t.Fatalf("two head reads read the disk %d times, want 1", n)
	}
	res := r.Truth(spec, 1000)
	if r.Truth(spec, 1000) != res {
		t.Error("full result not memoised")
	}
	if got := r.TruthSummary(spec, 1000); got != head || res.Summary() != head {
		t.Errorf("head %+v, full result's head %+v", got, res.Summary())
	}
	if n := reads(st) - base; n != 2 {
		t.Errorf("head then full read the disk %d times, want 2", n)
	}
	if n := r.Simulations(); n != 0 {
		t.Errorf("simulations = %d, want 0", n)
	}
}

// TestSlotFullThenHead: after a full read, a head read is a memo hit.
func TestSlotFullThenHead(t *testing.T) {
	spec := memoSpec(t)
	st := warmStore(t, spec)
	r := cachedRunner(2, st)
	base := reads(st)

	res := r.Truth(spec, 1000)
	if head := r.TruthSummary(spec, 1000); head != res.Summary() {
		t.Errorf("head %+v, full result's head %+v", head, res.Summary())
	}
	if n := reads(st) - base; n != 1 {
		t.Errorf("full then head read the disk %d times, want 1", n)
	}
	if n := r.Simulations(); n != 0 {
		t.Errorf("simulations = %d, want 0", n)
	}
}

// TestSlotConcurrentHeadReaders: concurrent head readers of one key share
// one flight and one disk read.
func TestSlotConcurrentHeadReaders(t *testing.T) {
	spec := memoSpec(t)
	st := warmStore(t, spec)
	r := cachedRunner(4, st)
	base := reads(st)

	const readers = 16
	heads := make([]sim.Summary, readers)
	var wg sync.WaitGroup
	for i := range heads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heads[i] = r.TruthSummary(spec, 1000)
		}()
	}
	wg.Wait()
	for i := range heads {
		if heads[i] != heads[0] || heads[i].Time <= 0 {
			t.Fatalf("reader %d got %+v, reader 0 %+v", i, heads[i], heads[0])
		}
	}
	if n := reads(st) - base; n != 1 {
		t.Errorf("%d concurrent head readers read the disk %d times, want 1", readers, n)
	}
}

// TestSlotHeadMissSimulatesOnce: a head read that misses the disk
// simulates the run, writes it back and memoises the full result, so a
// later Truth touches neither the disk nor the simulator.
func TestSlotHeadMissSimulatesOnce(t *testing.T) {
	spec := memoSpec(t)
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := cachedRunner(2, st)
	head := r.TruthSummary(spec, 1000)
	after := st.Stats()
	if after.Misses != 1 || after.Puts != 1 || r.Simulations() != 1 {
		t.Fatalf("head read on an empty store: %+v, %d simulations; want one miss, put and simulation",
			after, r.Simulations())
	}
	res := r.Truth(spec, 1000)
	if st.Stats() != after || r.Simulations() != 1 {
		t.Errorf("Truth after the simulating head read: store %+v -> %+v, %d simulations",
			after, st.Stats(), r.Simulations())
	}
	if res.Summary() != head {
		t.Errorf("head %+v, memoised result's head %+v", head, res.Summary())
	}
}

// TestSlotCancelledFullKeepsHead: a full flight that fails (here: its
// context is already cancelled) leaves the head the slot held usable and
// the full read retryable.
func TestSlotCancelledFullKeepsHead(t *testing.T) {
	spec := memoSpec(t)
	st := warmStore(t, spec)
	r := cachedRunner(2, st)
	base := reads(st)
	head := r.TruthSummary(spec, 1000)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.TruthCtx(ctx, spec, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("full read under a cancelled context: %v", err)
	}
	if got := r.TruthSummary(spec, 1000); got != head {
		t.Errorf("head after the cancelled flight %+v, want %+v", got, head)
	}
	if n := reads(st) - base; n != 1 {
		t.Errorf("disk reads after the cancelled flight = %d, want 1", n)
	}
	res, err := r.TruthCtx(context.Background(), spec, 1000)
	if err != nil || res.Summary() != head {
		t.Fatalf("retried full read: %v", err)
	}
	if n := reads(st) - base; n != 2 || r.Simulations() != 0 {
		t.Errorf("retry read the disk %d times in all and simulated %d runs, want 2 and 0", n, r.Simulations())
	}
}

// doneWatch is a context that closes waiting on the first call of Done: a
// caller of entry.do calls it only to block on another caller's flight.
type doneWatch struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *doneWatch) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestSlotHeadWaitsOnFullFlight drives one slot directly: a head reader
// arriving while a full flight is in progress waits for it and is served
// its head, without a flight of its own.
func TestSlotHeadWaitsOnFullFlight(t *testing.T) {
	var e entry
	var follows atomic.Int64
	res := &sim.Result{Time: 42, Energy: 7}
	entered, release := make(chan struct{}), make(chan struct{})
	fullDone := make(chan error, 1)
	go func() {
		_, got, _, err := e.do(context.Background(), true, &follows, func(context.Context) (*sim.Summary, *sim.Result, any, error) {
			close(entered)
			<-release
			head := res.Summary()
			return &head, res, nil, nil
		})
		if err == nil && got != res {
			err = errors.New("full reader got another result")
		}
		fullDone <- err
	}()
	<-entered
	ctx := &doneWatch{Context: context.Background(), waiting: make(chan struct{})}
	headDone := make(chan *sim.Summary, 1)
	go func() {
		head, _, _, err := e.do(ctx, false, &follows, func(context.Context) (*sim.Summary, *sim.Result, any, error) {
			t.Error("head reader flew its own flight")
			return nil, nil, nil, errors.New("unexpected flight")
		})
		if err != nil {
			t.Error(err)
		}
		headDone <- head
	}()
	select {
	case <-ctx.waiting:
	case <-headDone:
		close(release)
		t.Fatal("head reader returned without waiting on the flight in progress")
	}
	close(release)
	if err := <-fullDone; err != nil {
		t.Fatal(err)
	}
	if head := <-headDone; head == nil || *head != res.Summary() {
		t.Errorf("head reader got %+v, want %+v", head, res.Summary())
	}
	if n := follows.Load(); n != 1 {
		t.Errorf("follows = %d, want 1: the head reader waited once", n)
	}
}
