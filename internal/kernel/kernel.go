package kernel

import (
	"fmt"

	"depburst/internal/cpu"
	"depburst/internal/event"
	"depburst/internal/units"
)

// Config holds scheduler parameters.
type Config struct {
	// Timeslice is how long a thread may run before a waiting runnable
	// thread preempts it (wall time: timer-driven).
	Timeslice units.Time
	// ContextSwitchCycles is the cost of switching a core between
	// threads, in core cycles — kernel code executes on the core, so its
	// cost scales with frequency.
	ContextSwitchCycles int64
	// ValidateBlocks makes Env.Compute validate every block before
	// simulating it. Costs a pass over the block's events; intended for
	// developing custom workloads, off for the stock benchmarks.
	ValidateBlocks bool
}

// DefaultConfig returns scheduler parameters scaled to match the
// simulator's ~100x-compressed benchmark durations.
func DefaultConfig() Config {
	return Config{
		Timeslice:           100 * units.Microsecond,
		ContextSwitchCycles: 2000, // 2 µs at 1 GHz
	}
}

// Kernel owns the cores, the run queue, and all thread state.
type Kernel struct {
	cfg   Config
	eng   *event.Engine
	cores []*cpu.Core

	threads  []*Thread
	running  []*Thread // indexed by core; nil when idle
	lastTID  []ThreadID
	runq     []*Thread
	liveApp  int
	liveAll  int
	appEnd   units.Time
	recorder *Recorder

	// onPark hooks fire after any thread goes to sleep; each JVM
	// instance uses one to detect that its world has stopped.
	onPark []func(now units.Time)

	// ffPool / ffPoolTime accumulate the counters and simulated time of
	// exactly the detailed blocks that sampled simulation's fast-forward
	// mode replaces (those submitted via Env.ComputeSampled). The sampling
	// detector learns its extrapolation rates from this pool's per-quantum
	// growth.
	ffPool     cpu.Counters
	ffPoolTime units.Time

	// abortErr, once set by Abort, makes Run stop before its next event,
	// kill the remaining threads and return the error.
	abortErr error
}

// New builds a kernel over the given cores and event engine.
func New(eng *event.Engine, cores []*cpu.Core, cfg Config) *Kernel {
	k := &Kernel{
		cfg:      cfg,
		eng:      eng,
		cores:    cores,
		running:  make([]*Thread, len(cores)),
		lastTID:  make([]ThreadID, len(cores)),
		recorder: NewRecorder(),
	}
	for i := range k.lastTID {
		k.lastTID[i] = NoThread
	}
	return k
}

// FFPool returns the cumulative fast-forward rate pool: the counter
// deltas and simulated time of every block submitted via
// Env.ComputeSampled while detailed simulation was active.
func (k *Kernel) FFPool() (cpu.Counters, units.Time) { return k.ffPool, k.ffPoolTime }

// Recorder returns the epoch recorder for this kernel.
func (k *Kernel) Recorder() *Recorder { return k.recorder }

// Engine returns the event engine driving this kernel.
func (k *Kernel) Engine() *event.Engine { return k.eng }

// Cores returns the number of cores.
func (k *Kernel) Cores() int { return len(k.cores) }

// Threads returns all threads ever spawned.
func (k *Kernel) Threads() []*Thread { return k.threads }

// SetParkHook registers fn to run whenever a thread goes to sleep. Hooks
// accumulate: every co-running runtime instance installs its own.
func (k *Kernel) SetParkHook(fn func(now units.Time)) { k.onPark = append(k.onPark, fn) }

// LiveAppThreads reports how many application threads have not exited.
func (k *Kernel) LiveAppThreads() int { return k.liveApp }

// RunningOrRunnable reports whether any thread of the given class is
// currently running or waiting to run (i.e. not asleep and not exited).
func (k *Kernel) RunningOrRunnable(c Class) bool {
	return k.RunningOrRunnableGroup(c, -1)
}

// RunningOrRunnableGroup is RunningOrRunnable restricted to one thread
// group (-1 means any group). A stop-the-world collector only needs its
// own group's application threads stopped.
func (k *Kernel) RunningOrRunnableGroup(c Class, group int) bool {
	for _, t := range k.threads {
		if t.class != c || (group >= 0 && t.group != group) {
			continue
		}
		switch t.state {
		case stateRunning, stateRunnable, stateNew:
			return true
		}
	}
	return false
}

// Spawn creates a thread in group 0 and makes it runnable at the engine's
// current time. affinity < 0 lets the scheduler place it anywhere.
func (k *Kernel) Spawn(name string, class Class, affinity int, p Program) *Thread {
	return k.SpawnGroup(name, class, 0, affinity, p)
}

// SpawnGroup is Spawn with an explicit thread group (one group per
// co-running runtime instance).
func (k *Kernel) SpawnGroup(name string, class Class, group, affinity int, p Program) *Thread {
	t := &Thread{
		id:       ThreadID(len(k.threads)),
		name:     name,
		class:    class,
		group:    group,
		program:  p,
		affinity: affinity,
		core:     -1,
		state:    stateNew,
		resume:   make(chan struct{}),
		out:      make(chan yieldKind),
		spawnAt:  k.eng.Now(),
	}
	k.threads = append(k.threads, t)
	k.liveAll++
	if class == ClassApp {
		k.liveApp++
	}
	go t.run(k)
	k.enqueue(t)
	k.dispatchAll(k.eng.Now())
	return t
}

func (t *Thread) run(k *Kernel) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				// Forced shutdown of a daemon thread: report exit
				// without touching kernel state further.
				t.out <- yieldExited
				return
			}
			panic(r)
		}
	}()
	<-t.resume
	if t.killed {
		panic(killSignal{})
	}
	t.program(&Env{k: k, t: t})
	t.out <- yieldExited
}

// enqueue adds t to the tail of the run queue.
func (k *Kernel) enqueue(t *Thread) {
	if t.state == stateRunning || t.state == stateExited {
		panic("kernel: enqueueing a " + t.state.String() + " thread")
	}
	if t.state != stateNew {
		t.state = stateRunnable
	}
	k.runq = append(k.runq, t)
}

// dispatchAll fills every idle core from the run queue.
func (k *Kernel) dispatchAll(now units.Time) {
	for core := range k.cores {
		k.dispatch(core, now)
	}
}

// dispatch places the best runnable thread onto an idle core.
func (k *Kernel) dispatch(core int, now units.Time) {
	if k.running[core] != nil || len(k.runq) == 0 {
		return
	}
	// Prefer a thread with affinity for this core or that last ran here;
	// otherwise take the queue head.
	pick := -1
	for i, t := range k.runq {
		if t.affinity == core || (t.affinity < 0 && t.core == core) {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i, t := range k.runq {
			if t.affinity < 0 || k.running[t.affinity] != nil {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	t := k.runq[pick]
	k.runq = append(k.runq[:pick], k.runq[pick+1:]...)

	wasNew := t.state == stateNew
	start := now
	if k.lastTID[core] != t.id && k.lastTID[core] != NoThread {
		start += k.cycleCost(core, k.cfg.ContextSwitchCycles)
	}
	t.core = core
	t.now = start
	// The context-switch window is CPU work on this core (it scales with
	// frequency), so it counts as the thread's active time: runStart is
	// the dispatch instant, not the post-switch instant.
	t.runStart = now
	t.sliceEnd = start + k.cfg.Timeslice
	t.state = stateRunning
	k.running[core] = t
	k.lastTID[core] = t.id

	// Scheduling a new or sleeping thread onto a core opens an epoch.
	kind := BoundaryWake
	if wasNew {
		kind = BoundarySpawn
	}
	k.boundary(now, kind, t.id)

	k.eng.Schedule(start, func(at units.Time) { k.step(t) })
}

// step resumes t for one operation and handles its yield.
func (k *Kernel) step(t *Thread) {
	if t.state != stateRunning {
		panic("kernel: stepping a " + t.state.String() + " thread")
	}
	t.resume <- struct{}{}
	kind := <-t.out

	switch kind {
	case yieldOp:
		// Preempt if the slice expired and someone could use this core.
		if t.now >= t.sliceEnd && k.wantsCore(t.core) {
			k.chargeActive(t)
			k.running[t.core] = nil
			k.boundary(t.now, BoundaryPreempt, t.id)
			t.state = stateRunnable
			k.enqueue(t)
			k.dispatchAll(t.now)
			return
		}
		k.eng.Schedule(t.now, func(at units.Time) { k.step(t) })

	case yieldBlocked:
		k.chargeActive(t)
		core := t.core
		k.running[core] = nil
		k.boundary(t.now, BoundarySleep, t.id)
		k.dispatchAll(t.now)
		for _, hook := range k.onPark {
			hook(t.now)
		}

	case yieldExited:
		k.chargeActive(t)
		t.state = stateExited
		t.endAt = t.now
		core := t.core
		if core >= 0 && k.running[core] == t {
			k.running[core] = nil
		}
		k.liveAll--
		if t.class == ClassApp {
			k.liveApp--
			if t.now > k.appEnd {
				k.appEnd = t.now
			}
		}
		k.boundary(t.now, BoundaryExit, t.id)
		k.dispatchAll(t.now)
		for _, hook := range k.onPark {
			hook(t.now)
		}
	}
}

// cycleCost converts a cycle count on the given core into wall time at the
// core's current frequency.
func (k *Kernel) cycleCost(core int, cycles int64) units.Time {
	return k.cores[core].Clock().Freq().CyclesToTime(cycles)
}

// wantsCore reports whether some runnable thread could run on core.
func (k *Kernel) wantsCore(core int) bool {
	for _, t := range k.runq {
		if t.affinity < 0 || t.affinity == core {
			return true
		}
	}
	return false
}

// SyncActive brings every running thread's Active counter up to the given
// instant, so out-of-band samplers (the per-quantum meter) see consistent
// counters even in the middle of long uninterrupted compute phases.
func (k *Kernel) SyncActive() {
	now := k.eng.Now()
	for _, rt := range k.running {
		if rt != nil {
			k.chargeActiveUpTo(rt, now)
		}
	}
}

// chargeActive accrues the running thread's scheduled time into its
// counters up to its local time.
func (k *Kernel) chargeActive(t *Thread) {
	k.chargeActiveUpTo(t, t.now)
}

// chargeActiveUpTo accrues scheduled time up to min(t.now, upTo). Capping
// at an epoch or quantum boundary keeps a thread's in-flight block (whose
// local time runs ahead of the global clock) from being attributed wholly
// to the interval that is closing; the remainder lands in the next one.
func (k *Kernel) chargeActiveUpTo(t *Thread, upTo units.Time) {
	end := t.now
	if upTo < end {
		end = upTo
	}
	if end > t.runStart {
		t.ctr.Active += end - t.runStart
		if t.core >= 0 {
			k.cores[t.core].AddActive(end - t.runStart)
		}
		t.runStart = end
	}
}

// boundary closes the current epoch at time now: it brings every running
// thread's counters up to date and hands them to the recorder.
func (k *Kernel) boundary(now units.Time, kind BoundaryKind, tid ThreadID) {
	for _, rt := range k.running {
		if rt != nil {
			k.chargeActiveUpTo(rt, now)
		}
	}
	k.recorder.Boundary(now, kind, tid, k.threads)
}

// makeRunnable marks a sleeping thread runnable at time at (the waker's
// local time) and kicks dispatch.
func (k *Kernel) makeRunnable(t *Thread, at units.Time) {
	if t.state != stateSleeping {
		panic("kernel: waking a " + t.state.String() + " thread")
	}
	engNow := k.eng.Now()
	if at < engNow {
		at = engNow
	}
	t.state = stateRunnable
	k.eng.Schedule(at, func(now units.Time) {
		k.runq = append(k.runq, t)
		k.dispatchAll(now)
	})
}

// WakeAt wakes up to n sleepers on f at time at. It is for engine-context
// hooks (e.g. the JVM's stop-the-world trigger); simulated threads use
// Env.Wake instead.
func (k *Kernel) WakeAt(f *Futex, n int, at units.Time) int { return k.wake(f, n, at) }

// AppEndTime returns the local time at which the last application thread
// exited (zero until then).
func (k *Kernel) AppEndTime() units.Time { return k.appEnd }

// Run drives the simulation until every thread has exited or deadlock. It
// returns the time the last thread exited. Daemon service threads still
// alive when all application threads have exited are forcibly killed.
func (k *Kernel) Run() (units.Time, error) {
	for {
		if k.abortErr != nil {
			k.Shutdown()
			return k.eng.Now(), fmt.Errorf("kernel: aborted: %w", k.abortErr)
		}
		if !k.eng.Step() {
			break
		}
		if k.liveAll == 0 {
			break
		}
	}
	if k.liveApp > 0 {
		var stuck []string
		for _, t := range k.threads {
			if t.class == ClassApp && t.state != stateExited {
				stuck = append(stuck, t.String())
			}
		}
		return k.eng.Now(), fmt.Errorf("kernel: deadlock, %d app threads stuck: %v", len(stuck), stuck)
	}
	k.Shutdown()
	return k.eng.Now(), nil
}

// Abort makes Run stop before dispatching its next event, forcibly
// terminate every remaining thread (so no goroutine leaks) and return err.
// Call it from inside an event callback — e.g. the machine's sampling
// quantum — to cancel a simulation mid-flight; the partial state is not
// meaningful afterwards.
func (k *Kernel) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("abort")
	}
	if k.abortErr == nil {
		k.abortErr = err
	}
}

// Shutdown forcibly terminates remaining (daemon) threads so their
// goroutines exit.
func (k *Kernel) Shutdown() {
	for _, t := range k.threads {
		if t.state == stateExited {
			continue
		}
		t.killed = true
		// Running or parked, the thread observes killed at its next
		// resume; force it.
		t.resume <- struct{}{}
		<-t.out
		t.state = stateExited
		t.endAt = t.now
		k.liveAll--
		if t.class == ClassApp {
			k.liveApp--
		}
		if t.core >= 0 && k.running[t.core] == t {
			k.running[t.core] = nil
		}
	}
}
