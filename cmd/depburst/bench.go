package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/report"
	"depburst/internal/sampling"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// benchDoc is the machine-readable record `depburst bench` emits, the
// anchor point of the performance trajectory: wall time of the full
// experiment suite, speedup of the parallel engine over the serial
// baseline, cold-vs-warm wall time through the persistent result cache,
// and whether every mode produced byte-identical tables.
type benchDoc struct {
	Schema          string  `json:"schema"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Workers         int     `json:"workers"`
	StepMHz         int     `json:"step_mhz"`
	Experiments     int     `json:"experiments"`
	WallSeconds     float64 `json:"wall_seconds"`
	SerialSeconds   float64 `json:"serial_seconds,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	Deterministic   *bool   `json:"deterministic,omitempty"`
	OutputBytes     int     `json:"output_bytes"`
	UnixTimeSeconds int64   `json:"unix_time_seconds"`

	// Persistent-cache phase: the suite rendered once against an empty
	// cache directory (cold, populating) and once against the populated
	// one (warm, pure deserialization).
	CacheColdSeconds   float64 `json:"cache_cold_seconds,omitempty"`
	CacheWarmSeconds   float64 `json:"cache_warm_seconds,omitempty"`
	CacheSpeedup       float64 `json:"cache_speedup,omitempty"`
	CacheDeterministic *bool   `json:"cache_deterministic,omitempty"`
	CacheEntries       int     `json:"cache_entries,omitempty"`
	CacheBytes         int64   `json:"cache_bytes,omitempty"`

	// Sampled-mode phase (schema /2): the suite rendered cold (populating
	// a fresh cache) and warm under the default sampling policy. The
	// speedup compares sampled cold against full-detail cold — the number
	// that matters for first contact — and the error delta is the shift
	// sampling induces in the DEP+BURST mean-abs prediction error over the
	// Figure 1 matrix (a fraction; x100 for percentage points).
	SampleColdSeconds   float64 `json:"sample_cold_seconds,omitempty"`
	SampleWarmSeconds   float64 `json:"sample_warm_seconds,omitempty"`
	SampleSpeedup       float64 `json:"sample_speedup,omitempty"`
	SampleErrorDelta    float64 `json:"sample_error_delta,omitempty"`
	SampleDeterministic *bool   `json:"sample_deterministic,omitempty"`

	// Surrogate phase (schema /3): the learned fast path trained on the
	// cachecheck phase's corpus. Predict latency is the direct in-process
	// call; the speedup compares it against the corpus's mean cold
	// full-detail simulation; the hit rate is the corpus fraction whose
	// estimates clear the serving confidence gate; the holdout error is the
	// high-confidence bucket's held-out mean-abs relative error.
	SurrogateSamples      int     `json:"surrogate_samples,omitempty"`
	SurrogateGroups       int     `json:"surrogate_groups,omitempty"`
	SurrogateTrainSeconds float64 `json:"surrogate_train_seconds,omitempty"`
	SurrogatePredictUs    float64 `json:"surrogate_predict_us,omitempty"`
	SurrogateHitRate      float64 `json:"surrogate_hit_rate,omitempty"`
	SurrogateHoldoutErr   float64 `json:"surrogate_holdout_err,omitempty"`
	SurrogateSpeedup      float64 `json:"surrogate_speedup,omitempty"`

	// Loadtest is the record `depburst loadtest -o` merged into the file
	// (see mergeLoadReport). bench does not produce it; writeBenchDoc
	// carries an existing one through verbatim.
	Loadtest json.RawMessage `json:"loadtest,omitempty"`
}

// cmdBench times the full experiment suite through the parallel engine,
// through a serial (-j 1) runner (unless -baseline=false), cold/warm
// through a fresh persistent cache (unless -cachecheck=false), and cold/warm
// in sampled mode (unless -samplecheck=false), checks that every mode's
// output is byte-identical to its own reruns, and writes the result as JSON.
func cmdBench(args []string, workers int) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	step := fs.Int("step", 500, "static sweep step in MHz for Figure 7")
	out := fs.String("o", "BENCH_suite.json", "output file")
	baseline := fs.Bool("baseline", true, "also run serially (-j 1) to measure speedup and verify determinism")
	cachecheck := fs.Bool("cachecheck", true, "also run cold+warm through a temporary persistent cache to measure the warm-rerun speedup and verify byte-identity")
	samplecheck := fs.Bool("samplecheck", true, "also run the suite cold+warm in sampled mode to measure its cold-run speedup and prediction-error delta")
	surrogatecheck := fs.Bool("surrogatecheck", true, "also train the learned surrogate on the cachecheck corpus and record its latency, hit rate, and held-out error (needs -cachecheck)")
	fs.Parse(args)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "bench: WARNING: GOMAXPROCS is 1; the parallel engine cannot show a speedup and every timing understates a multi-core runner")
	}

	newRunner := func(n int, disk *simcache.Store, sampled bool) *experiments.Runner {
		r := experiments.NewRunnerWorkers(n)
		r.SetDiskCache(disk)
		if sampled {
			r.SetSampling(sampling.DefaultPolicy())
		}
		return r
	}
	nTables := 0
	render := func(r *experiments.Runner) (string, time.Duration) {
		start := time.Now() //depburst:allow determinism -- bench times the real wall clock; the tables themselves are checked for byte-identity
		tables := suiteTables(r, units.Freq(*step))
		var b strings.Builder
		for _, t := range tables {
			t.Fprint(&b)
		}
		nTables = len(tables)
		//depburst:allow determinism -- wall-clock duration is the measurement
		return b.String(), time.Since(start)
	}

	fmt.Fprintf(os.Stderr, "bench: full suite, %d workers (GOMAXPROCS %d)...\n",
		workers, runtime.GOMAXPROCS(0))
	par := newRunner(workers, nil, false)
	parText, parDur := render(par)
	fmt.Fprintf(os.Stderr, "bench: parallel run %.2fs\n", parDur.Seconds())

	doc := benchDoc{
		Schema:          "depburst-bench/3",
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Workers:         workers,
		StepMHz:         *step,
		Experiments:     nTables,
		WallSeconds:     parDur.Seconds(),
		OutputBytes:     len(parText),
		UnixTimeSeconds: time.Now().Unix(), //depburst:allow determinism -- the record is stamped with when it was taken by design
	}
	diverged := false
	var corpusStore *simcache.Store // the cachecheck phase's populated corpus
	var corpusColdSeconds float64
	var corpusSims int64
	if *baseline {
		fmt.Fprintf(os.Stderr, "bench: serial baseline (-j 1)...\n")
		serText, serDur := render(newRunner(1, nil, false))
		det := parText == serText
		doc.SerialSeconds = serDur.Seconds()
		doc.Speedup = serDur.Seconds() / parDur.Seconds()
		doc.Deterministic = &det
		fmt.Fprintf(os.Stderr, "bench: serial run %.2fs, speedup %.2fx, deterministic=%v\n",
			serDur.Seconds(), doc.Speedup, det)
		if !det {
			fmt.Fprintln(os.Stderr, "bench: ERROR: parallel output differs from serial output")
			diverged = true
		}
	}
	if *cachecheck {
		dir, err := os.MkdirTemp("", "depburst-bench-cache-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		st, err := simcache.Open(dir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: cold run into %s...\n", dir)
		cold := newRunner(workers, st, false)
		coldText, coldDur := render(cold)
		fmt.Fprintf(os.Stderr, "bench: cold run %.2fs; warm rerun...\n", coldDur.Seconds())
		warmText, warmDur := render(newRunner(workers, st, false))
		det := coldText == parText && warmText == parText
		doc.CacheColdSeconds = coldDur.Seconds()
		doc.CacheWarmSeconds = warmDur.Seconds()
		doc.CacheSpeedup = coldDur.Seconds() / warmDur.Seconds()
		doc.CacheDeterministic = &det
		doc.CacheEntries, doc.CacheBytes, _ = st.Size()
		fmt.Fprintf(os.Stderr, "bench: warm run %.2fs, warm speedup %.2fx, deterministic=%v (%d entries, %.1f MB)\n",
			warmDur.Seconds(), doc.CacheSpeedup, det, doc.CacheEntries, float64(doc.CacheBytes)/1e6)
		if !det {
			fmt.Fprintln(os.Stderr, "bench: ERROR: cached output differs from uncached output")
			diverged = true
		}
		corpusStore = st
		corpusColdSeconds = coldDur.Seconds()
		corpusSims = cold.Simulations()
	}
	if *samplecheck {
		dir, err := os.MkdirTemp("", "depburst-bench-sample-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		st, err := simcache.Open(dir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: sampled cold run (-sample)...\n")
		sr := newRunner(workers, st, true)
		sampColdText, sampColdDur := render(sr)
		fmt.Fprintf(os.Stderr, "bench: sampled cold %.2fs; warm rerun...\n", sampColdDur.Seconds())
		sampWarmText, sampWarmDur := render(newRunner(workers, st, true))
		det := sampWarmText == sampColdText
		doc.SampleColdSeconds = sampColdDur.Seconds()
		doc.SampleWarmSeconds = sampWarmDur.Seconds()
		// Compare cold against cold: prefer the cachecheck phase's cold run
		// (same populating-cache conditions) over the uncached parallel run.
		fullCold := parDur.Seconds()
		if doc.CacheColdSeconds > 0 {
			fullCold = doc.CacheColdSeconds
		}
		doc.SampleSpeedup = fullCold / sampColdDur.Seconds()
		doc.SampleDeterministic = &det
		// Both runners hold every Figure 1 truth memoised from the renders
		// above, so the error delta costs only the predictor evaluations.
		suite := dacapo.Suite()
		doc.SampleErrorDelta = depBurstMeanAbs(sr, suite) - depBurstMeanAbs(par, suite)
		fmt.Fprintf(os.Stderr, "bench: sampled cold %.2fs (%.2fx over full cold), warm %.2fs, DEP+BURST error delta %+.2fpp, deterministic=%v\n",
			sampColdDur.Seconds(), doc.SampleSpeedup, sampWarmDur.Seconds(), 100*doc.SampleErrorDelta, det)
		if !det {
			fmt.Fprintln(os.Stderr, "bench: ERROR: warm sampled output differs from cold sampled output")
			diverged = true
		}
	}
	if *surrogatecheck && corpusStore != nil && corpusSims > 0 {
		samples, err := surrogate.Scan(corpusStore)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if len(samples) > 0 {
			fmt.Fprintf(os.Stderr, "bench: training the surrogate on the %d-sample cachecheck corpus...\n", len(samples))
			start := time.Now() //depburst:allow determinism -- bench times the real wall clock
			model := surrogate.Train(samples)
			//depburst:allow determinism -- wall-clock duration is the measurement
			trainDur := time.Since(start)
			sum := model.Summarize()
			doc.SurrogateSamples = len(samples)
			doc.SurrogateGroups = sum.Groups
			doc.SurrogateTrainSeconds = trainDur.Seconds()

			hits := 0
			reps := 1 + 1000/len(samples)
			start = time.Now() //depburst:allow determinism -- predict latency is the measurement
			for i := 0; i < reps; i++ {
				for _, s := range samples {
					if est, ok := model.Predict(s.Config, s.Spec); ok && i == 0 &&
						est.Confidence >= surrogate.DefaultMinConfidence {
						hits++
					}
				}
			}
			//depburst:allow determinism -- predict latency is the measurement
			predDur := time.Since(start)
			predSecs := predDur.Seconds() / float64(reps*len(samples))
			doc.SurrogatePredictUs = 1e6 * predSecs
			doc.SurrogateHitRate = float64(hits) / float64(len(samples))
			cleared, _ := surrogateHoldout(samples)
			doc.SurrogateHoldoutErr = report.MeanAbs(cleared)
			doc.SurrogateSpeedup = (corpusColdSeconds / float64(corpusSims)) / predSecs
			fmt.Fprintf(os.Stderr, "bench: surrogate: %d groups, train %.2fs, predict %.1fus (%.0fx over cold sim), hit rate %.0f%%, held-out err %s\n",
				doc.SurrogateGroups, trainDur.Seconds(), doc.SurrogatePredictUs,
				doc.SurrogateSpeedup, 100*doc.SurrogateHitRate, report.PctAbs(doc.SurrogateHoldoutErr))
		}
	}

	if err := writeBenchDoc(*out, doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if diverged {
		os.Exit(1)
	}
}

// writeBenchDoc writes doc to path as indented JSON. A "loadtest" record
// already in the file is kept, so `depburst loadtest -o F` and
// `depburst bench -o F` keep both reports whichever runs first.
func writeBenchDoc(path string, doc benchDoc) error {
	if old, err := os.ReadFile(path); err == nil {
		var prev struct {
			Loadtest json.RawMessage `json:"loadtest"`
		}
		if json.Unmarshal(old, &prev) == nil {
			doc.Loadtest = prev.Loadtest
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
