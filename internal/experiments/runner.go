// Package experiments regenerates every table and figure in the paper's
// evaluation (see DESIGN.md's experiment index): Table I, Figures 1, 3(a),
// 3(b), 4, 6 and 7. Each experiment returns a report.Table whose rows
// mirror what the paper plots.
//
// Simulations are pure functions of their full input (machine
// configuration, workload, governor), so the experiment matrix is
// embarrassingly parallel: the Runner executes runs on a bounded worker
// pool with singleflight deduplication under a content key over that whole
// input, each experiment fans its whole run set out up front (Prewarm /
// FanOut), and rows are then assembled serially from the memoised results
// — which makes the rendered tables byte-identical at any worker count.
//
// The Runner is also cancellable: WithContext binds a context, every
// simulation polls it once per sampling quantum, and cancellation unwinds
// through table assembly as a typed panic that Cancelable converts back
// into the context's error. A cancelled flight is retried by the next
// caller, so one aborted request never poisons the shared memo tables.
package experiments

import (
	"context"
	"errors"
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

// Runner executes and memoises benchmark runs. Runs are pure functions of
// their full input, so each is executed once and shared across experiments.
//
// The Runner is safe for concurrent use: concurrent callers asking for the
// same run block on one in-flight simulation (singleflight) instead of
// duplicating it, and the number of simulations executing at once is capped
// by the worker pool (SetWorkers). Each simulation owns its engine, kernel
// and RNG, so results are independent of scheduling order.
//
// A copy of a Runner (rn := *r) is a derived Runner: it shares the memo,
// worker pool, disk cache and simulation counter, and may change Base
// freely, because Base is part of every memo key. A copy that calls
// SetWorkers keeps the memo but simulates on a pool and queue of its own;
// the prediction server runs its requests on such a view.
type Runner struct {
	// Base is the machine template; per-run copies adjust frequency and
	// the benchmark's JVM sizing.
	Base sim.Config

	workers int
	sem     chan struct{}
	// queued counts the simulations waiting for a slot of sem; maxQueue,
	// when positive, bounds it (SetMaxQueue).
	queued   *atomic.Int64
	maxQueue int

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
	// scaled suites; copies inherit the override.
	suite []dacapo.Spec

	// sims counts simulations actually executed (not served from memo or
	// disk). Shared by every copy so servers can assert and export one
	// global figure.
	sims *atomic.Int64

	// memo holds the singleflight slots, shared by every copy.
	memo *memo
}

// memo maps a run's content key (see contentKey) to its slot. follows
// counts the callers that waited on another caller's flight.
type memo struct {
	mu sync.Mutex
	//depburst:guardedby mu
	m       map[string]*entry
	follows atomic.Int64
}

// slot returns the singleflight slot for key, creating it if needed.
func (m *memo) slot(key string) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[key]
	if !ok {
		e = &entry{}
		m.m[key] = e
	}
	return e
}

// resultFingerprint pins the structure of sim.Result into every content
// key, and contentKey puts sim.CodecVersion beside it, so a binary whose
// result schema or encoding differs always misses instead of purging the
// other binary's entries.
var resultFingerprint = simcache.Fingerprint(sim.Result{})

// contentKey is the one key of a run, in the memo and on disk: the result
// schema fingerprint and codec version, the run kind, the complete machine
// configuration (which carries frequency, quantum, seed, sampling policy
// and the benchmark's JVM sizing) and every other input — benchmark specs,
// governor parameters. Keying fails only on NaN or Inf, which no caller
// passes, so a failure is a bug and panics.
func contentKey(kind string, cfg sim.Config, extra ...any) string {
	cfg.Metrics = nil // observability never changes results
	key, err := simcache.Key(append([]any{resultFingerprint, sim.CodecVersion, kind, cfg}, extra...)...)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s run: %v", kind, err))
	}
	return key
}

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
// copies and WithContext bindings) actually executed — memo and disk-cache
// hits are not counted. Servers use it to verify request coalescing.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// Coalesced reports how many callers of this Runner and its copies waited
// on another caller's in-flight run instead of starting their own.
func (r *Runner) Coalesced() int64 { return r.memo.follows.Load() }

// WithContext returns a Runner bound to ctx that shares this Runner's memo,
// worker pool, disk cache and simulation counter. Work launched
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

// ErrSaturated is the error a run gets from a Runner with a queue bound
// (SetMaxQueue) when it needs a simulation, every pool slot is busy and the
// bound is reached. Nothing was simulated; a later retry may succeed.
var ErrSaturated = errors.New("experiments: simulation queue full")

// unwind passes a run's outcome through, converting cancellation into the
// panic Cancelable recovers.
func unwind(res *sim.Result, mgr any, err error) (*sim.Result, any) {
	if err != nil {
		panic(canceled{err})
	}
	return res, mgr
}

// entry is one singleflight memo slot. It holds nothing, a run's head
// alone (a disk hit for which only the head was asked), or the full result
// with its head (simulated, or first asked for in full). Unlike a
// sync.Once slot it is retryable: a flight that fails (cancellation)
// leaves the slot as it found it, so the next caller re-executes it, while
// what a successful flight produced is memoised forever. done non-nil
// means a flight is in progress.
type entry struct {
	mu sync.Mutex
	//depburst:guardedby mu
	done chan struct{}
	//depburst:guardedby mu
	head *sim.Summary
	//depburst:guardedby mu
	res *sim.Result
	//depburst:guardedby mu
	mgr any
}

// execFn is one flight's body. It returns the run's head and, when it
// decoded or simulated the whole run, the result and (for governed runs)
// the manager. It must return a non-nil error only for context
// cancellation or ErrSaturated; simulator failures panic, as they
// indicate bugs.
type execFn func(ctx context.Context) (*sim.Summary, *sim.Result, any, error)

// do resolves the slot for a caller that needs the full result (full) or
// only the head. A slot already holding what the caller needs returns it;
// an in-flight one, head or full, is waited on (abandoning the wait, but
// not the flight, when ctx is cancelled first) and then examined again;
// otherwise this caller executes exec as the flight leader. A caller that
// waits is counted once in follows.
func (e *entry) do(ctx context.Context, full bool, follows *atomic.Int64, exec execFn) (*sim.Summary, *sim.Result, any, error) {
	followed := false
	for {
		e.mu.Lock()
		if e.res != nil || !full && e.head != nil {
			head, res, mgr := e.head, e.res, e.mgr
			e.mu.Unlock()
			return head, res, mgr, nil
		}
		if e.done == nil {
			done := make(chan struct{})
			e.done = done
			e.mu.Unlock()
			return e.lead(ctx, exec, done)
		}
		done := e.done
		e.mu.Unlock()
		if !followed {
			followed = true
			follows.Add(1)
		}
		select {
		case <-done:
			// Loop: the flight either filled the slot or failed
			// (cancelled or refused), and this caller should retry it.
		case <-ctx.Done():
			return nil, nil, nil, ctx.Err()
		}
	}
}

// lead executes the body as the flight leader and publishes the outcome:
// success memoises what the flight produced; an error or panic only clears
// the flight, so a later caller retries instead of inheriting the failure.
func (e *entry) lead(ctx context.Context, exec execFn, done chan struct{}) (head *sim.Summary, res *sim.Result, mgr any, err error) {
	completed := false
	defer func() {
		e.mu.Lock()
		if completed {
			e.head = head
			if res != nil {
				e.res, e.mgr = res, mgr
			}
		}
		e.done = nil
		close(done)
		e.mu.Unlock()
	}()
	head, res, mgr, err = exec(ctx)
	completed = err == nil
	return head, res, mgr, err
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
		memo: &memo{m: make(map[string]*entry)},
	}
	r.SetWorkers(n)
	return r
}

// SetWorkers gives the Runner a simulation pool of its own with n slots
// and an empty queue. Call it before launching work (and before copying
// the Runner, unless the copy is to simulate apart); in-flight simulations
// keep the slot they already hold.
func (r *Runner) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	r.workers = n
	r.sem = make(chan struct{}, n)
	r.queued = new(atomic.Int64)
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// SetMaxQueue bounds the simulations that may wait for a pool slot: once n
// wait, a run that needs one more simulation fails with ErrSaturated
// instead of queueing. Memo hits, disk hits and followers of an in-flight
// run never wait for a slot, so the bound never refuses them. n <= 0 (the
// default) leaves the queue unbounded. Set it before launching work, and
// call a bounded Runner only through TruthCtx: the panicking accessors
// would unwind the refusal like a cancellation.
func (r *Runner) SetMaxQueue(n int) { r.maxQueue = n }

// Queued reports how many simulations wait for a slot of the Runner's pool.
func (r *Runner) Queued() int64 { return r.queued.Load() }

// SetSampling installs a sampled-simulation policy on the Runner's base
// machine configuration. Every subsequent simulation the Runner launches
// runs under the policy; results carry the sampled error-bound report and
// the policy enters the content key (it is part of sim.Config), so sampled
// and full-detail results can never alias. Call before launching work, or
// on a copy of a Runner that is already serving.
func (r *Runner) SetSampling(p sampling.Policy) { r.Base.Sampling = p.Normalized() }

// Sampling returns the Runner's sampled-simulation policy (zero value:
// full detail).
func (r *Runner) Sampling() sampling.Policy { return r.Base.Sampling }

// gate blocks until a pool slot is free and returns the release func. It
// gives up with ctx's error when the context is cancelled while queued, and
// at once with ErrSaturated when every slot is busy and the queue bound is
// reached. Only runs that actually execute a simulation acquire a slot or
// a queue place; experiment-level fan-out goroutines and followers block in
// singleflight waits without holding either, so nesting FanOut/Prewarm
// cannot deadlock the pool.
func (r *Runner) gate(ctx context.Context) (func(), error) {
	release := func() { <-r.sem }
	select {
	case r.sem <- struct{}{}:
		return release, nil
	default:
	}
	if n := r.queued.Add(1); r.maxQueue > 0 && n > int64(r.maxQueue) {
		r.queued.Add(-1)
		return nil, ErrSaturated
	}
	defer r.queued.Add(-1)
	select {
	case r.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// job is one run's complete input: its family (kind), the machine, the
// workload, the governor and every other input that shapes the result.
// kind, cfg and extra form the content key. govern, when non-nil,
// installs a governor on the machine and returns its manager. corpus
// marks a full-detail truth run of one benchmark, whose cache entry
// carries the surrogate training manifest.
type job struct {
	kind   string
	cfg    sim.Config
	w      sim.Workload
	govern func(*sim.Machine) any
	extra  []any
	corpus bool
}

// manifest returns the surrogate training manifest of a corpus job's cache
// entry, and nil for any other job. Only a live run's write-back calls it,
// never a hit. The JSON encoding fails only on NaN or ±Inf, which
// contentKey has already rejected.
func (j job) manifest() []byte {
	if !j.corpus {
		return nil
	}
	meta, _ := surrogate.NewTruthManifest(j.cfg, j.w.(*dacapo.Workload).Spec).MarshalBinary()
	return meta
}

// run resolves one memoised run in full. The manager of a governed run is
// memoised beside the result (nil on disk hits: only results persist).
func (r *Runner) run(ctx context.Context, j job) (*sim.Result, any, error) {
	_, res, mgr, err := r.resolve(ctx, j, true)
	return res, mgr, err
}

// summary resolves only the head of one memoised run, on the binding
// context, unwinding cancellation like unwind.
func (r *Runner) summary(j job) sim.Summary {
	head, _, _, err := r.resolve(r.context(), j, false)
	if err != nil {
		panic(canceled{err})
	}
	return *head
}

// resolve resolves one memoised run: the memo, then the disk cache, then a
// pool slot and a live simulation written back to disk. A caller that
// needs only the head (full unset) decodes only the head of a disk entry;
// a live simulation memoises the whole result either way. A non-nil error
// is ctx's, or ErrSaturated when the queue bound refused the simulation;
// either leaves the slot for the next caller to retry.
func (r *Runner) resolve(ctx context.Context, j job, full bool) (*sim.Summary, *sim.Result, any, error) {
	key := contentKey(j.kind, j.cfg, j.extra...)
	return r.memo.slot(key).do(ctx, full, &r.memo.follows, func(ctx context.Context) (*sim.Summary, *sim.Result, any, error) {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		if r.disk != nil {
			if full {
				var res sim.Result
				if r.disk.Get(key, &res) {
					head := res.Summary()
					return &head, &res, nil, nil
				}
			} else {
				var head sim.Summary
				if r.disk.Get(key, &head) {
					return &head, nil, nil, nil
				}
			}
		}
		out, mgr, err := r.simulate(ctx, j, key)
		if err != nil {
			return nil, nil, nil, err
		}
		head := out.Summary()
		return &head, out, mgr, nil
	})
}

// simulate runs j live, unmemoised: it takes a pool slot, builds the
// machine, installs the governor and runs under ctx, counting in
// Simulations, and given a key and a disk cache writes the result back
// before it releases the slot. A non-nil error is ctx's, or ErrSaturated
// when the queue bound refused the slot; a simulator failure panics. An
// already-cancelled ctx starts nothing, even when a slot is free.
func (r *Runner) simulate(ctx context.Context, j job, key string) (*sim.Result, any, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	release, err := r.gate(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	r.sims.Add(1)
	m := sim.New(j.cfg)
	var mgr any
	if j.govern != nil {
		mgr = j.govern(m)
	}
	out, err := m.RunContext(ctx, j.w)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		panic(fmt.Sprintf("experiments: %s@%v: %v", j.w.Name(), j.cfg.Freq, err))
	}
	if key != "" && r.disk != nil {
		// Best effort: a full or read-only cache must never fail the
		// experiment that produced the result. The store counts and
		// reports the failure.
		_ = r.disk.PutMeta(key, &out, j.manifest())
	}
	return &out, mgr, nil
}

// TruthConfig is the configuration Truth simulates spec at frequency f
// under: the machine template, sampling policy included, at f with the
// spec's workload knobs applied.
func (r *Runner) TruthConfig(spec dacapo.Spec, f units.Freq) sim.Config {
	cfg := r.Base
	cfg.Freq = f
	spec.Configure(&cfg)
	return cfg
}

// truthJob is the measured run of spec at frequency f. A full-detail one
// is surrogate training data; governed, co-run, sequential and
// sampled-mode runs never are.
func (r *Runner) truthJob(spec dacapo.Spec, f units.Freq) job {
	cfg := r.TruthConfig(spec, f)
	return job{kind: "truth", cfg: cfg, w: dacapo.New(spec), extra: []any{spec}, corpus: !cfg.Sampling.Enabled}
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
// error-based entry point servers use for deadline propagation and
// admission. A non-nil error is ctx's error, or ErrSaturated when the
// Runner's queue bound (SetMaxQueue) refused the simulation the run needs;
// the in-flight simulation it abandons (or aborts, if this caller was the
// flight leader) is retried by the next caller.
func (r *Runner) TruthCtx(ctx context.Context, spec dacapo.Spec, f units.Freq) (*sim.Result, error) {
	res, _, err := r.run(ctx, r.truthJob(spec, f))
	return res, err
}

// TruthSummary returns the head of Truth(spec, f): its time, energy, DRAM
// and GC totals. It shares Truth's memo slot, so it returns at once when
// the run is memoised in either form and otherwise decodes only the head
// of a disk entry; a run no cache holds is simulated and memoised in full.
func (r *Runner) TruthSummary(spec dacapo.Spec, f units.Freq) sim.Summary {
	return r.summary(r.truthJob(spec, f))
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
// until the head of each is memoised (TruthSummary), simulating whatever
// no cache holds. Experiments call it up front for the runs whose scalars
// they read, beside Observations for the runs whose detail they read, so
// row assembly afterwards is pure memo hits.
func (r *Runner) Prewarm(specs []dacapo.Spec, freqs ...units.Freq) {
	fns := make([]func(), 0, len(specs)*len(freqs))
	for _, spec := range specs {
		for _, f := range freqs {
			fns = append(fns, func() { r.TruthSummary(spec, f) })
		}
	}
	r.FanOut(fns...)
}

// Observations fetches the full truth runs of specs at f concurrently and
// returns their observations in spec order: the prediction bases of an
// experiment, whose epochs and threads the predictors read.
func (r *Runner) Observations(specs []dacapo.Spec, f units.Freq) []*core.Observation {
	obs := make([]*core.Observation, len(specs))
	fns := make([]func(), len(specs))
	for i, spec := range specs {
		fns[i] = func() { obs[i] = Observe(r.Truth(spec, f)) }
	}
	r.FanOut(fns...)
	return obs
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
