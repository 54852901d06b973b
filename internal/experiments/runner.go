// Package experiments regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's experiment index): Table I, Figures 1, 3(a),
// 3(b), 4, 6 and 7. Each experiment returns a report.Table whose rows
// mirror what the paper plots.
//
// Ground-truth simulations are pure functions of (benchmark, frequency,
// seed), so the experiment matrix is embarrassingly parallel: the Runner
// executes truth runs on a bounded worker pool with singleflight
// deduplication, each experiment fans its whole truth-run set out up front
// (Prewarm / FanOut), and rows are then assembled serially from the
// memoised results — which makes the rendered tables byte-identical at any
// worker count.
//
// The Runner is also cancellable: WithContext binds a context, every
// simulation polls it once per sampling quantum, and cancellation unwinds
// through table assembly as a typed panic that Cancelable converts back
// into the context's error. A cancelled flight is retried by the next
// caller, so one aborted request never poisons the shared memo tables.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// Frequencies used throughout the evaluation.
var (
	// EvalFreqs are the paper's measurement frequencies.
	EvalFreqs = []units.Freq{1000, 2000, 3000, 4000}
	// FMin and FMax bound the DVFS range.
	FMin units.Freq = 1000
	FMax units.Freq = 4000
)

// Runner executes and memoises ground-truth benchmark runs. Truth runs are
// pure functions of (benchmark, frequency, seed), so each is executed once
// and shared across experiments.
//
// The Runner is safe for concurrent use: concurrent callers asking for the
// same key block on one in-flight simulation (singleflight) instead of
// duplicating it, and the number of simulations executing at once is capped
// by the worker pool (SetWorkers). Each simulation owns its engine, kernel
// and RNG, so results are independent of scheduling order.
type Runner struct {
	// Base is the machine template; per-run copies adjust frequency and
	// the benchmark's JVM sizing.
	Base sim.Config

	workers int
	sem     chan struct{}

	// disk, when non-nil, is the persistent content-addressed result
	// store consulted under the singleflight layer: a key hit replaces
	// the whole simulation with deserialization, and every live run is
	// written back. nil (the default) keeps the Runner purely in-memory.
	disk *simcache.Store

	// ctx is the binding context installed by WithContext; nil means
	// context.Background() (never cancelled, the CLI default).
	ctx context.Context

	// suite overrides the benchmark set the Runner's experiments iterate
	// (nil = the stock paper suite). Serving and tests use small or
	// scaled suites; forks inherit the override.
	suite []dacapo.Spec

	// sims counts simulations actually executed (not served from memo or
	// disk). Shared across WithContext bindings and forks so servers can
	// assert and export one global figure.
	sims *atomic.Int64

	// memo holds the singleflight tables. WithContext bindings share it;
	// fork creates a fresh one (different machine template, same pool).
	memo *memo
}

type memo struct {
	mu sync.Mutex
	//depburst:guardedby mu
	truth map[truthKey]*entry
	//depburst:guardedby mu
	runs map[runKey]*entry
}

// resultFingerprint pins the structure of sim.Result into every disk-cache
// key, and diskKey puts sim.CodecVersion beside it, so a binary whose
// result schema or encoding differs always misses instead of purging the
// other binary's entries.
var resultFingerprint = simcache.Fingerprint(sim.Result{})

// SetDiskCache attaches a persistent result store (nil detaches). Attach it
// before launching work; runs already in flight are unaffected.
func (r *Runner) SetDiskCache(s *simcache.Store) { r.disk = s }

// DiskCache returns the attached persistent store (nil when disabled).
func (r *Runner) DiskCache() *simcache.Store { return r.disk }

// SetSuite overrides the benchmark suite the Runner's experiments iterate
// (nil restores the stock paper suite). Set it before launching work.
func (r *Runner) SetSuite(specs []dacapo.Spec) { r.suite = specs }

// Suite returns the benchmark set experiments iterate: the override
// installed by SetSuite, or the stock paper suite.
func (r *Runner) Suite() []dacapo.Spec {
	if r.suite != nil {
		return r.suite
	}
	return dacapo.Suite()
}

// Simulations reports how many simulations this Runner (including its
// WithContext bindings and forks) actually executed — memo and disk-cache
// hits are not counted. Servers use it to verify request coalescing.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// WithContext returns a Runner bound to ctx that shares this Runner's memo
// tables, worker pool, disk cache and simulation counter. Work launched
// through the binding — including experiment table methods — aborts
// promptly once ctx is cancelled: simulations poll the context each
// sampling quantum, and the cancellation unwinds as a panic that Cancelable
// converts back into an error.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	nr := *r
	nr.ctx = ctx
	return &nr
}

// context returns the binding context (Background when unbound).
func (r *Runner) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// canceled is the panic value a bound Runner uses to unwind table assembly
// when its context is cancelled. Cancelable converts it into the error.
type canceled struct{ err error }

// Cancelable runs fn, converting a Runner cancellation unwind into the
// context's error. Wrap experiment-table calls on a WithContext-bound
// Runner:
//
//	rc := r.WithContext(ctx)
//	err := experiments.Cancelable(func() { table = rc.Fig1() })
func Cancelable(fn func()) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if c, ok := p.(canceled); ok {
			err = c.err
			return
		}
		panic(p)
	}()
	fn()
	return nil
}

// diskKey computes the content address for one run family: the result
// schema fingerprint and codec version, the run kind, the complete machine
// configuration (which carries frequency, quantum, seed and the
// benchmark's JVM sizing) and any extra inputs — benchmark specs, governor
// parameters. ok is false when no store is attached or the inputs fail to
// encode.
func (r *Runner) diskKey(kind string, cfg sim.Config, extra ...any) (string, bool) {
	if r.disk == nil {
		return "", false
	}
	cfg.Metrics = nil // observability never changes results
	parts := append([]any{resultFingerprint, sim.CodecVersion, kind, cfg}, extra...)
	key, err := simcache.Key(parts...)
	if err != nil {
		return "", false
	}
	return key, true
}

// diskGet serves a memoised run family slot from the persistent store.
func (r *Runner) diskGet(key string, ok bool) *sim.Result {
	if !ok {
		return nil
	}
	var res sim.Result
	if !r.disk.Get(key, &res) {
		return nil
	}
	return &res
}

// diskPut writes a freshly simulated result back, best effort: a full or
// read-only cache must never fail the experiment that produced the result.
func (r *Runner) diskPut(key string, ok bool, res *sim.Result) {
	if ok {
		_ = r.disk.Put(key, res)
	}
}

// putTruthMeta installs the surrogate training sidecar next to a cached
// full-detail truth entry, best effort — it is what turns the cache into a
// scannable corpus. Hits backfill sidecars missing from older corpora.
// Sampled-mode results are approximations and are never offered to the
// trainer.
func (r *Runner) putTruthMeta(key string, ok bool, cfg sim.Config, spec dacapo.Spec) {
	if !ok || cfg.Sampling.Enabled || r.disk.HasMeta(key) {
		return
	}
	_ = r.disk.PutMeta(key, surrogate.NewTruthManifest(cfg, spec))
}

type truthKey struct {
	bench string
	freq  units.Freq
}

// runKind distinguishes the governed (energy-managed) run families, which
// are memoised alongside truth runs with their tuning parameters as key.
type runKind uint8

const (
	runChip runKind = iota
	runPerCore
	runFeedback
	runCoRunChip
)

type runKey struct {
	kind      runKind
	bench     string
	threshold float64
	holdOff   int
	quantum   units.Time
}

// entry is one singleflight memo slot. Unlike a sync.Once slot it is
// retryable: a flight that fails (cancellation) is cleared so the next
// caller re-executes it, while a successful flight memoises its result
// forever. res non-nil means complete; done non-nil means in flight.
type entry struct {
	mu sync.Mutex
	//depburst:guardedby mu
	done chan struct{}
	//depburst:guardedby mu
	res *sim.Result
	//depburst:guardedby mu
	mgr any
}

// execFn is one run family's body. It returns the result and (for governed
// families) the manager. It must return a non-nil error only for context
// cancellation; simulator failures panic, as they indicate bugs.
type execFn func(ctx context.Context) (*sim.Result, any, error)

// do resolves the slot: a memoised result returns immediately, an
// in-flight one is waited on (abandoning the wait, but not the flight, when
// ctx is cancelled first), and an idle one is executed by this caller.
func (e *entry) do(ctx context.Context, exec execFn) (*sim.Result, any, error) {
	for {
		e.mu.Lock()
		if e.res != nil {
			res, mgr := e.res, e.mgr
			e.mu.Unlock()
			return res, mgr, nil
		}
		if e.done == nil {
			done := make(chan struct{})
			e.done = done
			e.mu.Unlock()
			return e.lead(ctx, exec, done)
		}
		done := e.done
		e.mu.Unlock()
		select {
		case <-done:
			// Loop: either the flight succeeded (res is set) or it was
			// cancelled and this caller should retry it.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// lead executes the body as the flight leader and publishes the outcome:
// success memoises the result; an error or panic clears the flight so a
// later caller retries instead of inheriting the failure.
func (e *entry) lead(ctx context.Context, exec execFn, done chan struct{}) (res *sim.Result, mgr any, err error) {
	completed := false
	defer func() {
		e.mu.Lock()
		if completed {
			e.res, e.mgr = res, mgr
		}
		e.done = nil
		close(done)
		e.mu.Unlock()
	}()
	res, mgr, err = exec(ctx)
	completed = err == nil
	return res, mgr, err
}

// NewRunner returns a Runner over the default machine with a worker pool
// sized to GOMAXPROCS.
func NewRunner() *Runner {
	return NewRunnerWorkers(runtime.GOMAXPROCS(0))
}

// NewRunnerWorkers returns a Runner whose pool executes at most n
// simulations concurrently. n <= 1 gives fully serial execution.
func NewRunnerWorkers(n int) *Runner {
	r := &Runner{
		Base: sim.DefaultConfig(),
		sims: new(atomic.Int64),
		memo: &memo{
			truth: make(map[truthKey]*entry),
			runs:  make(map[runKey]*entry),
		},
	}
	r.SetWorkers(n)
	return r
}

// SetWorkers resizes the simulation pool. Call it before launching work
// (and before WithContext/fork derivations); in-flight simulations keep the
// slot they already hold.
func (r *Runner) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
	r.sem = make(chan struct{}, n)
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// SetSampling installs a sampled-simulation policy on the Runner's base
// machine configuration. Every subsequent simulation the Runner launches
// runs under the policy; results carry the sampled error-bound report and
// the policy enters both the in-memory memo (a Runner holds exactly one
// policy) and the persistent cache's content key (the policy is part of
// sim.Config), so sampled and full-detail results can never alias. Call
// before launching work.
func (r *Runner) SetSampling(p sampling.Policy) { r.Base.Sampling = p.Normalized() }

// Sampling returns the Runner's sampled-simulation policy (zero value:
// full detail).
func (r *Runner) Sampling() sampling.Policy { return r.Base.Sampling }

// WithSampling returns a Runner sharing this Runner's worker pool, disk
// cache and simulation counter, but with independent memo tables and the
// given sampling policy — the per-policy isolation the prediction service
// uses so one process can serve both sampled and full-detail requests.
func (r *Runner) WithSampling(p sampling.Policy) *Runner {
	nr := r.fork()
	nr.Base.Sampling = p.Normalized()
	return nr
}

// fork returns a Runner with the same Base and the same worker pool but an
// independent memo cache — used by experiments that vary the machine (other
// seeds, GC policies, DRAM models), so their fan-out still respects one
// global simulation cap.
func (r *Runner) fork() *Runner {
	nr := *r
	nr.memo = &memo{
		truth: make(map[truthKey]*entry),
		runs:  make(map[runKey]*entry),
	}
	return &nr
}

// gate blocks until a pool slot is free and returns the release func, or
// gives up with ctx's error when the context is cancelled while queued.
// Only the leaf helpers that actually execute a simulation acquire a slot;
// experiment-level fan-out goroutines block in singleflight waits without
// holding one, so nesting FanOut/Prewarm cannot deadlock the pool.
func (r *Runner) gate(ctx context.Context) (func(), error) {
	if r.sem == nil {
		return func() {}, nil
	}
	select {
	case r.sem <- struct{}{}:
		return func() { <-r.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// truthEntryFor returns the singleflight slot for key, creating it if
// needed.
func (r *Runner) truthEntryFor(key truthKey) *entry {
	m := r.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.truth[key]
	if !ok {
		e = &entry{}
		m.truth[key] = e
	}
	return e
}

func (r *Runner) runEntryFor(key runKey) *entry {
	m := r.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.runs[key]
	if !ok {
		e = &entry{}
		m.runs[key] = e
	}
	return e
}

// simulate executes one machine under ctx, counting it against the
// Runner's simulation tally. Cancellation returns ctx's error; any other
// simulator failure panics (it indicates a bug, never a caller mistake).
func (r *Runner) simulate(ctx context.Context, cfg sim.Config, setup func(*sim.Machine), w sim.Workload) (*sim.Result, error) {
	r.sims.Add(1)
	m := sim.New(cfg)
	if setup != nil {
		setup(m)
	}
	out, err := m.RunContext(ctx, w)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		panic(fmt.Sprintf("experiments: %s@%v: %v", w.Name(), cfg.Freq, err))
	}
	return &out, nil
}

// Truth returns the measured run of spec at frequency f. The run is
// memoised and deduplicated: concurrent callers share one execution. When
// the Runner is bound to a cancelled context the call unwinds with the
// cancellation panic (see Cancelable).
func (r *Runner) Truth(spec dacapo.Spec, f units.Freq) *sim.Result {
	res, err := r.TruthCtx(r.context(), spec, f)
	if err != nil {
		panic(canceled{err})
	}
	return res
}

// TruthCtx is Truth with an explicit context and error return: the
// error-based entry point servers use for deadline propagation. A non-nil
// error is always ctx's error; the in-flight simulation it abandons (or
// aborts, if this caller was the flight leader) is retried by the next
// caller.
func (r *Runner) TruthCtx(ctx context.Context, spec dacapo.Spec, f units.Freq) (*sim.Result, error) {
	e := r.truthEntryFor(truthKey{bench: spec.Name, freq: f})
	res, _, err := e.do(ctx, func(ctx context.Context) (*sim.Result, any, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		cfg := r.Base
		cfg.Freq = f
		spec.Configure(&cfg)
		key, ok := r.diskKey("truth", cfg, spec)
		if res := r.diskGet(key, ok); res != nil {
			r.putTruthMeta(key, ok, cfg, spec)
			return res, nil, nil
		}
		release, err := r.gate(ctx)
		if err != nil {
			return nil, nil, err
		}
		defer release()
		res, err := r.simulate(ctx, cfg, nil, dacapo.New(spec))
		if err != nil {
			return nil, nil, err
		}
		r.diskPut(key, ok, res)
		r.putTruthMeta(key, ok, cfg, spec)
		return res, nil, nil
	})
	return res, err
}

// runDo resolves a governed-run memo slot under the Runner's binding
// context, converting cancellation into the unwind panic. exec's manager
// return is memoised alongside the result (nil on disk hits).
func (r *Runner) runDo(key runKey, exec execFn) (*sim.Result, any) {
	e := r.runEntryFor(key)
	res, mgr, err := e.do(r.context(), exec)
	if err != nil {
		panic(canceled{err})
	}
	return res, mgr
}

// FanOut runs the closures concurrently and waits for all of them. The
// closures typically call Truth/ManagedRun/...; the simulation pool bounds
// how many actually execute at once. A panic in any closure is re-raised on
// the caller once the rest have finished.
func (r *Runner) FanOut(fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if r.workers <= 1 {
		// Serial mode: run in place, deterministic panic order, zero
		// goroutine overhead.
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	var once sync.Once
	var pv any
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { pv = p })
				}
			}()
			fn()
		}(fn)
	}
	wg.Wait()
	if pv != nil {
		panic(pv)
	}
}

// Prewarm fans out the truth runs for every (spec, freq) pair and blocks
// until the whole matrix is memoised. Experiments call it up front so row
// assembly afterwards is pure cache hits.
func (r *Runner) Prewarm(specs []dacapo.Spec, freqs ...units.Freq) {
	fns := make([]func(), 0, len(specs)*len(freqs))
	for _, spec := range specs {
		for _, f := range freqs {
			spec, f := spec, f
			fns = append(fns, func() { r.Truth(spec, f) })
		}
	}
	r.FanOut(fns...)
}

// Observe converts a measured run into the predictor-visible observation.
func Observe(res *sim.Result) *core.Observation {
	obs := &core.Observation{
		Base:   res.Freq,
		Total:  res.Time,
		Epochs: res.Epochs,
		Marks:  res.Marks,
	}
	for _, t := range res.Threads {
		obs.Threads = append(obs.Threads, core.ThreadObs{
			TID:   t.ID,
			Name:  t.Name,
			Class: t.Class,
			Start: t.Start,
			End:   t.End,
			C:     t.C,
		})
	}
	return obs
}

// Models returns the paper's six-model comparison set: M+CRIT, COOP and
// DEP, each with and without BURST.
func Models() []core.Model {
	return []core.Model{
		core.NewMCrit(core.Options{}),
		core.NewMCrit(core.Options{Burst: true}),
		core.NewCOOP(core.Options{}),
		core.NewCOOP(core.Options{Burst: true}),
		core.NewDEP(core.Options{}),
		core.NewDEP(core.Options{Burst: true}),
	}
}
