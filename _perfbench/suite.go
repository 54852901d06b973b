package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// Nominal host seconds of one unit of work on a 2-core x86 host, used only
// to turn the measurement budget into fixed repetition counts.
const (
	coldPassNominal   = 11.0
	warmPassNominal   = 0.14
	serveBatchNominal = 2.5
)

// Figure 6's slowdown thresholds; governed runs are memoised by them.
var fig6Thresholds = []float64{0.05, 0.10}

// simJob is one simulation the cold suite needs: a truth run of spec at
// freq, or (thr > 0) a governed run under the energy manager.
type simJob struct {
	spec dacapo.Spec
	freq units.Freq
	thr  float64
}

type jobResult struct {
	job simJob
	res *sim.Result
	dur time.Duration
}

// matrixJobs is Figure 1's truth matrix; Figure 6's 4 GHz references are
// part of it.
func matrixJobs(specs []dacapo.Spec) []simJob {
	var jobs []simJob
	for _, s := range specs {
		for _, f := range experiments.EvalFreqs {
			jobs = append(jobs, simJob{spec: s, freq: f})
		}
	}
	return jobs
}

// governedJobs is Figure 6's energy-manager runs.
func governedJobs(specs []dacapo.Spec) []simJob {
	var jobs []simJob
	for _, s := range specs {
		for _, thr := range fig6Thresholds {
			jobs = append(jobs, simJob{spec: s, freq: experiments.FMax, thr: thr})
		}
	}
	return jobs
}

// runJobs executes jobs through r on exactly workers goroutines, so no call
// waits for a pool slot and each call's duration is its simulation's host
// time. Jobs start in slice order.
func runJobs(r *experiments.Runner, jobs []simJob, workers int, tr *tracer, parent int) []jobResult {
	out := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				name := "sim.truth"
				if j.thr > 0 {
					name = "sim.governed"
				}
				id := tr.begin(name, parent, -1)
				start := time.Now()
				var res *sim.Result
				if j.thr > 0 {
					res, _ = r.ManagedRun(j.spec, j.thr)
				} else {
					res = r.Truth(j.spec, j.freq)
				}
				out[i] = jobResult{job: j, res: res, dur: time.Since(start)}
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	return out
}

func shuffle[T any](xs []T, rng *rand.Rand) []T {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// coldPassResult is one render of Figures 1 and 6 from an empty cache.
type coldPassResult struct {
	wall, prewarm, assemble, render time.Duration
	jobs                            []jobResult
	tables                          []string // rendered Figure 1 and Figure 6
	sims                            int64
	depburstErr                     float64
	store                           *simcache.Store
	runner                          *experiments.Runner
}

// coldPass renders Figure 1 and Figure 6 through a fresh Runner on an
// empty cache, the way `depburst -cache DIR fig1 fig6` does: first the
// Figure 1 truth matrix, then Figure 6's governed runs, then the tables,
// which are pure memo hits by then. The seed orders the simulations.
func coldPass(e *env, pass int, tr *tracer) (*coldPassResult, error) {
	store, err := e.openStore("cold")
	if err != nil {
		return nil, err
	}
	r := e.newRunner(store)
	rng := rand.New(rand.NewPCG(e.seed, uint64(pass)))
	matrix := shuffle(matrixJobs(e.specs()), rng)
	governed := shuffle(governedJobs(e.specs()), rng)

	root := tr.begin("bench.cold_pass", -1, -1)
	start := time.Now()
	out := &coldPassResult{store: store, runner: r}
	out.jobs = runJobs(r, matrix, e.nproc, tr, root)
	out.prewarm = time.Since(start)
	out.jobs = append(out.jobs, runJobs(r, governed, e.nproc, tr, root)...)

	asm := tr.begin("experiments.assemble", root, -1)
	t0 := time.Now()
	fig1, fig6 := r.Fig1(), r.Fig6()
	t1 := time.Now()
	rid := tr.begin("report.render", asm, -1)
	out.tables = []string{fig1.String(), fig6.String()}
	out.render = time.Since(t1)
	tr.end(rid)
	tr.end(asm)
	out.assemble = t1.Sub(t0)
	out.wall = time.Since(start)
	tr.end(root)

	out.sims = r.Simulations()
	out.depburstErr = depburstErrPct(r, e.specs())
	return out, nil
}

// depburstErrPct is Figure 1's DEP+BURST average absolute error at 4 GHz
// from a 1 GHz base, in percent, with all its digits.
func depburstErrPct(r *experiments.Runner, specs []dacapo.Spec) float64 {
	var sum float64
	for _, s := range specs {
		sum += math.Abs(r.PredictionError(s, core.NewDEPBurst(), 1000, 4000))
	}
	return 100 * sum / float64(len(specs))
}

// coldSetup is the cold suite's set-up: an empty cache and a Runner on it
// that simulates and caches one small run, so the allocator, the simulator
// and the cache write path are warm before timing.
func coldSetup(e *env) error {
	store, err := e.openStore("setup")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store.Dir())
	e.newRunner(store).Truth(e.specs()[0].Scaled(0.1), 1000)
	return nil
}

func coldSuite(e *env) (*outcome, error) {
	o := newOutcome()
	var setup []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := coldSetup(e); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	n := passes(e.seconds, coldPassNominal, 1)
	var wall time.Duration
	var p50s, tails []float64
	for p := 0; p < n; p++ {
		pr, err := coldPass(e, p, nil)
		if err != nil {
			return nil, err
		}
		wall += pr.wall
		var lat []float64
		for _, j := range pr.jobs {
			lat = append(lat, ms(j.dur))
		}
		p50s = append(p50s, median(lat))
		t, pct := tail(lat)
		tails = append(tails, t)
		o.notes["tail"] = fmt.Sprintf("p%.1f of %d simulations per pass", pct, len(lat))
		checkColdPass(e, o, pr)
		o.set("depburst_err_pct", pr.depburstErr, "%")
		os.RemoveAll(pr.store.Dir())
		// Collect this pass's results now, so the next pass's memory peak
		// does not depend on when the collector would have got to them.
		runtime.GC()
	}
	o.notes["passes"] = n
	o.set("wall_s", wall.Seconds(), "s")
	o.set("p50_ms", median(p50s), "ms")
	o.set("tail_ms", median(tails), "ms")
	o.finish(setup)
	return o, nil
}

func checkColdPass(e *env, o *outcome, pr *coldPassResult) {
	for _, t := range pr.tables {
		o.check(e.matches(t), "cold table differs from experiments_output.txt:\n"+t, e.log)
	}
	want := int64(len(pr.jobs))
	o.check(pr.sims == want, fmt.Sprintf("cold pass ran %d simulations, want %d", pr.sims, want), e.log)
}

// warmPass renders both tables through a fresh Runner on the populated
// cache, in a seeded order, and reports the elapsed time, whether both
// tables match want, and how many simulations the Runner executed.
func warmPass(e *env, store *simcache.Store, pass int, want []string, tr *tracer) (time.Duration, bool, int64) {
	rng := rand.New(rand.NewPCG(e.seed, 0x3a7<<32|uint64(pass)))
	first := rng.IntN(2)
	// Start from a collected heap, as a fresh `depburst -cache` process
	// would, so no pass pays for the garbage of the one before.
	runtime.GC()
	root := tr.begin("bench.warm_pass", -1, -1)
	start := time.Now()
	r := e.newRunner(store)
	got := make([]string, 2)
	for k := 0; k < 2; k++ {
		i := (first + k) % 2
		id := tr.begin("experiments.table", root, -1)
		t := r.Fig1()
		if i == 1 {
			t = r.Fig6()
		}
		rid := tr.begin("report.render", id, -1)
		got[i] = t.String()
		tr.end(rid)
		tr.end(id)
	}
	d := time.Since(start)
	tr.end(root)
	return d, got[0] == want[0] && got[1] == want[1], r.Simulations()
}

// buildCorpus renders both tables cold into a fresh cache: warm-replay's
// set-up. The rendered tables are what every warm pass must reproduce.
func buildCorpus(e *env, o *outcome) (*simcache.Store, []string, error) {
	store, err := e.openStore("corpus")
	if err != nil {
		return nil, nil, err
	}
	r := e.newRunner(store)
	tables := []string{r.Fig1().String(), r.Fig6().String()}
	for _, t := range tables {
		o.check(e.matches(t), "corpus table differs from experiments_output.txt:\n"+t, e.log)
	}
	return store, tables, nil
}

func warmReplay(e *env) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	store, want, err := buildCorpus(e, o)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()

	n := passes(e.seconds, warmPassNominal, 12)
	var lat []float64
	var wall time.Duration
	for p := 0; p < n; p++ {
		d, ok, sims := warmPass(e, store, p, want, nil)
		wall += d
		lat = append(lat, ms(d))
		o.check(ok, fmt.Sprintf("warm pass %d rendered different tables", p), e.log)
		o.check(sims == 0, fmt.Sprintf("warm pass %d ran %d simulations", p, sims), e.log)
	}
	t, pct := tail(lat)
	o.notes["passes"] = n
	o.notes["tail"] = fmt.Sprintf("p%.1f of %d passes", pct, n)
	o.set("wall_s", wall.Seconds(), "s")
	o.set("p50_ms", median(lat), "ms")
	o.set("tail_ms", t, "ms")
	o.set("depburst_err_pct", depburstErrPct(e.newRunner(store), e.specs()), "%")
	o.finish([]float64{setup})
	return o, nil
}
