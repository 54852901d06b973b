// Command depburst regenerates the paper's tables and figures and exposes
// the simulator for one-off runs.
//
// Usage:
//
//	depburst <experiment> [flags]
//
// Experiments: table1, table2, fig1, fig3a, fig3b, fig4, fig6, fig7,
// ablation, all, run, predict.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/obsio"
	"depburst/internal/report"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/tracefmt"
	"depburst/internal/units"
)

func parseWorkers(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		fmt.Fprintf(os.Stderr, "depburst: invalid worker count %q\n", s)
		os.Exit(2)
	}
	return n
}

// checkThreshold exits 2 on a -threshold that is not a finite number: the
// energy manager cannot act on it, and a run's content key cannot encode it.
func checkThreshold(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		fmt.Fprintf(os.Stderr, "depburst: invalid threshold %v\n", x)
		os.Exit(2)
	}
}

// suiteTables regenerates the full evaluation — every table and figure —
// through one shared runner. The ground-truth matrix (suite x eval and
// sweep frequencies) fans out over the worker pool first, so the
// experiments afterwards are mostly assembly plus their residual governed
// runs. Output is byte-identical at any worker count.
func suiteTables(r *experiments.Runner, step units.Freq) []*report.Table {
	freqs := append([]units.Freq(nil), experiments.EvalFreqs...)
	for _, f := range experiments.SweepFreqs(step) {
		seen := false
		for _, g := range freqs {
			if g == f {
				seen = true
				break
			}
		}
		if !seen {
			freqs = append(freqs, f)
		}
	}
	r.Prewarm(dacapo.Suite(), freqs...)
	return []*report.Table{
		r.Table1(),
		r.Table2(),
		r.Fig1(),
		r.Fig3a(),
		r.Fig3b(),
		r.Fig4(),
		r.Fig6(),
		r.Fig7(step),
		r.EngineAblation(),
		r.HoldOffAblation("xalan"),
		r.QuantumAblation("xalan"),
		r.DRAMVariabilityAblation(),
		r.GCPolicyAblation(),
		r.PrefetchAblation(),
		r.SequentialBackground(),
		r.HeapPressureSweep("lusearch"),
		r.RegressionComparison(),
		r.SeedSensitivity(nil),
		r.PerCoreDVFS(0.10),
		r.FeedbackAblation(0.10),
		r.Consolidation(nil),
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: depburst [-json] [-j N] [-cache DIR] [-sample] [-cpuprofile FILE]
                [-memprofile FILE] <command> [flags]

global flags:
  -json             emit tables as JSON instead of aligned text
  -j N, -parallel N simulation worker-pool size (default GOMAXPROCS);
                    output is byte-identical at any N. Under serve it
                    sizes the experiment endpoints' pool; predict
                    simulations use -request-workers
  -cache DIR        persistent simulation-result cache (default: the
                    DEPBURST_CACHE environment variable; empty disables).
                    A warm rerun deserialises instead of simulating and is
                    byte-identical to a cold run. DEPBURST_CACHE_MAX_MB
                    caps the cache size (LRU, default 4096)
  -sample           sampled simulation: detect steady-state phases online and
                    fast-forward them (see DESIGN.md "Sampled simulation").
                    Several times faster cold, with a machine-reported error
                    bound per run; results are approximate but deterministic
                    and cached separately from full-detail ones
  -cpuprofile FILE  write a CPU profile of the command to FILE
  -memprofile FILE  write a heap profile to FILE when the command ends
                    (both runtime/pprof; read them with 'go tool pprof')

commands:
  table1            benchmark characteristics at 1 GHz (Table I)
  table2            simulated system parameters (Table II)
  fig1              M+CRIT vs DEP+BURST average error (Figure 1)
  fig3a             per-benchmark errors, base 1 GHz (Figure 3a)
  fig3b             per-benchmark errors, base 4 GHz (Figure 3b)
  fig4              across- vs per-epoch CTP (Figure 4)
  fig6              energy manager savings at 5%%/10%% (Figure 6)
  fig7 [-step MHz]  dynamic vs static-optimal (Figure 7)
  ablation          engine / hold-off / quantum / DRAM ablations
  percore           chip-wide vs per-core DVFS (future-work extension)
  feedback          open-loop (paper) vs closed-loop manager extension
  consolidation     two JVMs co-running on four cores (multi-tenant)
  regression        offline-regression baseline vs DEP+BURST (related work)
  substrate         GC-policy and prefetcher substrate ablations
  sequential        single-thread engine background (paper §II-A)
  heap [-bench NAME]  nursery-size (heap pressure) sensitivity sweep
  seeds             robustness of the accuracy result across workload seeds
  all [-step MHz]   every experiment in order (one shared, prewarmed runner)
  run -bench NAME [-freq MHz] [-metrics FILE] [-timeline FILE]
      [-managed] [-threshold X] [-target MHz]
                    one measured run; -metrics exports the observability
                    document, -timeline a Chrome trace_event timeline,
                    -target adds prediction-error telemetry vs that truth run
  report [-base MHz] [-target MHz]  per-benchmark DEP+BURST error breakdown
                    (pipeline vs memory vs burst vs idle components)
  record -bench NAME [-freq MHz] -o FILE   record an observation as JSON
  suite [-o FILE]   export the stock benchmark suite as editable JSON
  doctor            quick self-check: determinism, accuracy, energy sanity
  samplecheck [-min-speedup X] [-o FILE]  sampled-mode accuracy gate: run the
                    Figure 1 truth matrix cold in both modes, verify every
                    sampled run lands inside its reported error bound, and
                    fail below the minimum cold-run speedup (CI job)
  offline -obs FILE [-target MHz]          predict offline from a recording
  predict -bench NAME [-base MHz] [-target MHz]  all models on one benchmark
  surrogatecheck [-max-err X] [-min-speedup X] [-o FILE]
                    surrogate accuracy gate over a cold corpus: every
                    held-out sample served within the error bound, no
                    answers for held-out benchmarks, and the tier-0 serving
                    speedup vs cold full-detail simulation (CI job)
  serve [-addr HOST:PORT] [-max-queue N] [-request-workers N] [-timeout D]
        [-step MHz] [-suite FILE] [-surrogate]
                    prediction-as-a-service HTTP API (see README "Serving");
                    predict simulations run on -request-workers slots
                    (default 2) with at most -max-queue (default 16)
                    waiting, beyond which a request gets 429; memo and
                    disk hits take neither. -j sizes the experiment
                    endpoints' pool, -cache is the shared result store;
                    -surrogate trains the tier-0 fast path at boot from
                    the -cache corpus
  loadtest [-addr HOST:PORT] [-rps N] [-duration D] [-bench NAME]
           [-p99-ms MS]
                    drive a running server and assert p99 + zero 5xx;
                    reports per-tier serving counts when exposed
  lint [-json] [-fix-hints] [-analyzers LIST] [-C DIR] [packages]
                    run the repo's static-analysis suite (determinism,
                    hotpath, ctxflow, goldenio, lockdisc); exits 1 on
                    findings, 2 on an unknown analyzer
`)
	os.Exit(2)
}

// jsonOut switches table output from aligned text to JSON.
var jsonOut bool

// emit prints a table in the selected format.
func emit(t *report.Table) {
	if jsonOut {
		if err := t.FprintJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	t.Fprint(os.Stdout)
}

// openCache opens the persistent result store at dir, honouring the
// DEPBURST_CACHE_MAX_MB size cap. Failures disable caching with a warning
// instead of failing the run.
func openCache(dir string) *simcache.Store {
	var maxBytes int64
	if mb := os.Getenv("DEPBURST_CACHE_MAX_MB"); mb != "" {
		n, err := strconv.ParseInt(mb, 10, 64)
		if err != nil || n <= 0 || n > math.MaxInt64>>20 {
			fmt.Fprintf(os.Stderr, "depburst: ignoring invalid DEPBURST_CACHE_MAX_MB=%q\n", mb)
		} else {
			maxBytes = n << 20
		}
	}
	st, err := simcache.Open(dir, maxBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "depburst: cache disabled: %v\n", err)
		return nil
	}
	return st
}

func main() {
	argv := os.Args[1:]
	workers := 0 // 0 = GOMAXPROCS default
	cacheDir := os.Getenv("DEPBURST_CACHE")
	var cpuProfile, memProfile string
	// Global flags with a value, given as "-flag V" or "-flag=V".
	values := map[string]*string{"-cache": &cacheDir, "-cpuprofile": &cpuProfile, "-memprofile": &memProfile}
	sampled := false
global:
	for len(argv) > 0 {
		arg := argv[0]
		switch {
		case arg == "-json":
			jsonOut = true
			argv = argv[1:]
		case arg == "-sample":
			sampled = true
			argv = argv[1:]
		case arg == "-j" || arg == "-parallel":
			if len(argv) < 2 {
				usage()
			}
			workers = parseWorkers(argv[1])
			argv = argv[2:]
		case strings.HasPrefix(arg, "-j=") || strings.HasPrefix(arg, "-parallel="):
			_, v, _ := strings.Cut(arg, "=")
			workers = parseWorkers(v)
			argv = argv[1:]
		default:
			name, v, hasValue := strings.Cut(arg, "=")
			dst, ok := values[name]
			if !ok {
				break global
			}
			if !hasValue {
				if len(argv) < 2 {
					usage()
				}
				v, argv = argv[1], argv[1:]
			}
			*dst = v
			argv = argv[1:]
		}
	}
	if len(argv) < 1 {
		usage()
	}
	cmd := argv[0]
	args := argv[1:]
	r := experiments.NewRunner()
	if workers > 0 {
		r.SetWorkers(workers)
	}
	if cacheDir != "" {
		if st := openCache(cacheDir); st != nil {
			r.SetDiskCache(st)
		}
	}
	if sampled {
		r.SetSampling(sampling.DefaultPolicy())
	}
	if err := profiled(cpuProfile, memProfile, func() { dispatch(r, cmd, args) }); err != nil {
		fmt.Fprintf(os.Stderr, "depburst: %v\n", err)
		os.Exit(1)
	}
}

// dispatch runs one command. A command with flags of its own parses them
// in its case; every other command goes to plain.
func dispatch(r *experiments.Runner, cmd string, args []string) {
	switch cmd {
	case "fig7":
		fs := flag.NewFlagSet("fig7", flag.ExitOnError)
		step := fs.Int("step", 125, "static sweep step in MHz")
		parseFlags(fs, args)
		r.Fig7(units.Freq(*step)).Fprint(os.Stdout)
	case "heap":
		fs := flag.NewFlagSet("heap", flag.ExitOnError)
		bench := fs.String("bench", "lusearch", "benchmark name")
		parseFlags(fs, args)
		emit(r.HeapPressureSweep(*bench))
	case "all":
		fs := flag.NewFlagSet("all", flag.ExitOnError)
		step := fs.Int("step", 125, "static sweep step in MHz")
		parseFlags(fs, args)
		for _, t := range suiteTables(r, units.Freq(*step)) {
			emit(t)
		}
	case "run":
		cmdRun(r, args)
	case "report":
		fs := flag.NewFlagSet("report", flag.ExitOnError)
		base := fs.Int("base", 1000, "base frequency in MHz")
		target := fs.Int("target", 4000, "target frequency in MHz")
		parseFlags(fs, args)
		emit(r.ErrorBreakdownTable(units.Freq(*base), units.Freq(*target)))
	case "record":
		cmdRecord(r, args)
	case "suite":
		cmdSuite(args)
	case "samplecheck":
		cmdSampleCheck(r, args)
	case "surrogatecheck":
		cmdSurrogateCheck(r, args)
	case "offline":
		cmdOffline(args)
	case "predict":
		cmdPredict(r, args)
	case "serve":
		cmdServe(r, args)
	case "loadtest":
		cmdLoadtest(args)
	case "lint":
		cmdLint(args)
	default:
		plain(r, cmd, args)
	}
}

// plain runs a command that takes no arguments: a leftover one exits 2
// before any work, as it does for the other commands after their flags.
// An unknown command gets the usage text, its arguments untouched.
func plain(r *experiments.Runner, cmd string, args []string) {
	var run func()
	switch cmd {
	case "table1":
		run = func() { emit(r.Table1()) }
	case "table2":
		run = func() { emit(r.Table2()) }
	case "fig1":
		run = func() { emit(r.Fig1()) }
	case "fig3a":
		run = func() { emit(r.Fig3a()) }
	case "fig3b":
		run = func() { emit(r.Fig3b()) }
	case "fig4":
		run = func() { emit(r.Fig4()) }
	case "fig6":
		run = func() { emit(r.Fig6()) }
	case "ablation":
		run = func() {
			emit(r.EngineAblation())
			emit(r.HoldOffAblation("xalan"))
			emit(r.QuantumAblation("xalan"))
			emit(r.DRAMVariabilityAblation())
		}
	case "percore":
		run = func() { emit(r.PerCoreDVFS(0.10)) }
	case "feedback":
		run = func() { emit(r.FeedbackAblation(0.10)) }
	case "consolidation":
		run = func() { emit(r.Consolidation(nil)) }
	case "regression":
		run = func() { emit(r.RegressionComparison()) }
	case "substrate":
		run = func() {
			emit(r.GCPolicyAblation())
			emit(r.PrefetchAblation())
		}
	case "sequential":
		run = func() { emit(r.SequentialBackground()) }
	case "seeds":
		run = func() { emit(r.SeedSensitivity(nil)) }
	case "doctor":
		run = cmdDoctor
	default:
		usage()
	}
	parseFlags(flag.NewFlagSet(cmd, flag.ExitOnError), args)
	run()
}

// parseFlags parses a command's flags and exits 2 on a leftover argument,
// which the command would otherwise ignore: `depburst fig1 fig6` would
// render Figure 1 alone and exit 0. Only lint takes positional arguments
// (package patterns), and it parses its own.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "depburst %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		os.Exit(2)
	}
}

func cmdRun(r *experiments.Runner, args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	bench := fs.String("bench", "xalan", "benchmark name")
	freq := fs.Int("freq", 1000, "frequency in MHz")
	suite := fs.String("suite", "", "custom suite JSON (see 'depburst suite')")
	metricsOut := fs.String("metrics", "", "write the run's metrics document (JSON) to FILE")
	timelineOut := fs.String("timeline", "", "write a Chrome trace_event timeline to FILE (chrome://tracing / Perfetto)")
	managed := fs.Bool("managed", false, "govern the run with the DEP+BURST energy manager (starts at 4 GHz)")
	threshold := fs.Float64("threshold", 0.10, "manager slowdown bound (with -managed)")
	target := fs.Int("target", 0, "record prediction-error telemetry against the truth run at this frequency (MHz)")
	parseFlags(fs, args)
	checkThreshold(*threshold)
	spec := resolveSpec(*suite, *bench)

	if *metricsOut == "" && *timelineOut == "" && !*managed && *target == 0 {
		printRun(spec, r.Truth(spec, units.Freq(*freq)))
		return
	}

	// Observability requested: run uncached with a registry attached.
	res, reg := r.InstrumentedRun(spec, units.Freq(*freq), *managed, *threshold)
	if *target > 0 {
		r.ErrorBreakdown(spec, core.Options{Burst: true}, units.Freq(*freq), units.Freq(*target), reg)
	}
	printRun(spec, res)
	if *metricsOut != "" {
		writeTo(*metricsOut, reg.WriteJSON)
		fmt.Printf("metrics        -> %s\n", *metricsOut)
	}
	if *timelineOut != "" {
		writeTo(*timelineOut, func(w io.Writer) error { return tracefmt.Write(w, res, reg) })
		fmt.Printf("timeline       -> %s (load in chrome://tracing or ui.perfetto.dev)\n", *timelineOut)
	}
}

// writeTo is writeFile for commands that exit on failure.
func writeTo(path string, write func(io.Writer) error) {
	if err := writeFile(path, write); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resolveSpec looks a benchmark up in the stock suite or, when suitePath is
// set, in a user-provided JSON suite.
func resolveSpec(suitePath, bench string) dacapo.Spec {
	if suitePath == "" {
		spec, err := dacapo.ByName(bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return spec
	}
	specs, err := dacapo.ReadSpecsFile(suitePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, s := range specs {
		if s.Name == bench {
			return s
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark %q not in %s\n", bench, suitePath)
	os.Exit(1)
	return dacapo.Spec{}
}

func printRun(spec dacapo.Spec, res *sim.Result) {
	tot := res.TotalCounters()
	fmt.Printf("benchmark      %s (%s)\n", spec.Name, spec.Class())
	fmt.Printf("frequency      %v\n", res.Freq)
	fmt.Printf("time           %v\n", res.Time)
	fmt.Printf("energy         %v (avg %.1f W)\n", res.Energy, res.Energy.Joules()/res.Time.Seconds())
	fmt.Printf("GC             %d minor, %d major, %v total (%.1f%%)\n",
		res.GC.MinorGCs, res.GC.MajorGCs, res.GC.GCTime,
		100*float64(res.GC.GCTime)/float64(res.Time))
	fmt.Printf("allocated      %.1f MB, copied %.1f MB\n",
		float64(res.GC.AllocBytes)/1e6, float64(res.GC.CopiedBytes)/1e6)
	fmt.Printf("instructions   %.1fM (IPC-ish %.2f)\n", float64(tot.Instrs)/1e6,
		float64(tot.Instrs)/(tot.Active.Seconds()*res.Freq.Hz()))
	fmt.Printf("epochs         %d\n", len(res.Epochs))
	fmt.Printf("DRAM           %d reads, %d writes, avg latency %v\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.AvgLatency)
	fmt.Printf("counters       CRIT=%v LL=%v STALL=%v SQfull=%v active=%v\n",
		tot.CritNS, tot.LeadNS, tot.StallNS, tot.SQFull, tot.Active)
}

// cmdSuite exports the stock benchmark definitions so users can edit them
// and run custom suites (see dacapo.ReadSpecsFile).
func cmdSuite(args []string) {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	out := fs.String("o", "suite.json", "output file")
	parseFlags(fs, args)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := dacapo.WriteSpecs(f, dacapo.Suite()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
	fmt.Printf("wrote %d benchmark definitions to %s\n", len(dacapo.Suite()), *out)
}

// cmdDoctor runs a fast end-to-end self-check of the installation.
func cmdDoctor() {
	ok := true
	check := func(name string, pass bool, detail string) {
		status := "ok  "
		if !pass {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%s  %-38s %s\n", status, name, detail)
	}

	spec, _ := dacapo.ByName("pmd.scale")
	r := experiments.NewRunner()
	r2 := experiments.NewRunner()

	base := r.Truth(spec, 1000)
	base2 := r2.Truth(spec, 1000)
	check("deterministic replay", base.Time == base2.Time && base.Energy == base2.Energy,
		fmt.Sprintf("time %v, energy %v", base.Time, base.Energy))

	check("garbage collector active", base.GC.MinorGCs > 0,
		fmt.Sprintf("%d collections, %v paused", base.GC.MinorGCs, base.GC.GCTime))

	check("epochs recorded", len(base.Epochs) > 100,
		fmt.Sprintf("%d synchronization epochs", len(base.Epochs)))

	eDep := r.PredictionError(spec, core.NewDEPBurst(), 1000, 4000)
	check("DEP+BURST accuracy", eDep > -0.10 && eDep < 0.10,
		fmt.Sprintf("%+.1f%% predicting 1->4 GHz", eDep*100))

	eM := r.PredictionError(spec, core.NewMCrit(core.Options{}), 1000, 4000)
	check("M+CRIT visibly worse (the paper's premise)", eM < -0.08,
		fmt.Sprintf("%+.1f%% predicting 1->4 GHz", eM*100))

	fast := r.Truth(spec, 4000)
	speedup := float64(base.Time) / float64(fast.Time)
	check("frequency scaling plausible", speedup > 1.5 && speedup < 4,
		fmt.Sprintf("1->4 GHz speedup %.2fx", speedup))

	check("energy accounting sane", base.Energy > 0 && fast.Energy > 0 &&
		base.Energy.Joules()/base.Time.Seconds() < fast.Energy.Joules()/fast.Time.Seconds(),
		fmt.Sprintf("%.1f W at 1 GHz, %.1f W at 4 GHz",
			base.Energy.Joules()/base.Time.Seconds(), fast.Energy.Joules()/fast.Time.Seconds()))

	if !ok {
		fmt.Println("doctor: FAILED")
		os.Exit(1)
	}
	fmt.Println("doctor: all checks passed")
}

// cmdRecord runs a benchmark and serialises the predictor-visible
// observation to a JSON file for offline analysis.
func cmdRecord(r *experiments.Runner, args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "xalan", "benchmark name")
	freq := fs.Int("freq", 1000, "frequency in MHz")
	out := fs.String("o", "observation.json", "output file")
	suite := fs.String("suite", "", "custom suite JSON")
	parseFlags(fs, args)
	spec := resolveSpec(*suite, *bench)
	res := r.Truth(spec, units.Freq(*freq))
	obs := experiments.Observe(res)
	if err := obsio.WriteFile(*out, spec.Name, obs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %s @%v: %d epochs, %d threads -> %s\n",
		spec.Name, res.Freq, len(obs.Epochs), len(obs.Threads), *out)
}

// cmdOffline loads a recorded observation and predicts at a target
// frequency with every model — no simulation involved.
func cmdOffline(args []string) {
	fs := flag.NewFlagSet("offline", flag.ExitOnError)
	path := fs.String("obs", "observation.json", "recorded observation")
	target := fs.Int("target", 4000, "target frequency in MHz")
	parseFlags(fs, args)
	name, obs, err := obsio.ReadFile(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	t := &report.Table{
		Title:  fmt.Sprintf("%s: offline prediction %v -> %d MHz (measured base: %v)", name, obs.Base, *target, obs.Total),
		Header: []string{"model", "predicted"},
	}
	for _, m := range experiments.Models() {
		t.AddRow(m.Name(), m.Predict(obs, units.Freq(*target)).String())
	}
	t.Fprint(os.Stdout)
}

func cmdPredict(r *experiments.Runner, args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	bench := fs.String("bench", "xalan", "benchmark name")
	base := fs.Int("base", 1000, "base frequency in MHz")
	target := fs.Int("target", 4000, "target frequency in MHz")
	suite := fs.String("suite", "", "custom suite JSON")
	parseFlags(fs, args)
	spec := resolveSpec(*suite, *bench)
	obs := experiments.Observe(r.Truth(spec, units.Freq(*base)))
	actual := r.TruthSummary(spec, units.Freq(*target)).Time

	t := &report.Table{
		Title:  fmt.Sprintf("%s: predict %d MHz from %d MHz (actual %v)", spec.Name, *target, *base, actual),
		Header: []string{"model", "predicted", "error"},
	}
	models := append(experiments.Models(),
		core.NewDEP(core.Options{Burst: true, PerEpochCTP: true}))
	for _, m := range models {
		p := m.Predict(obs, units.Freq(*target))
		t.AddRow(m.Name(), p.String(), report.Pct(report.RelError(float64(p), float64(actual))))
	}
	t.Fprint(os.Stdout)
}
