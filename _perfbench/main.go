// Command perfbench is the repository benchmark. It drives the depburst
// packages through three workloads and prints one JSON result line:
//
//	cold-suite   Figure 1 and Figure 6 rendered from an empty result cache
//	warm-replay  the same two tables replayed from a populated cache
//	serve-mixed  a closed loop of clients against an in-process /v1/predict
//
// With -trace 0 the result carries the end-to-end metrics of the named
// workload, measured without instrumentation. With -trace 1 a separate,
// instrumented run times the calls into each package from outside, reads
// the packages' public counters and reports the per-layer metrics (see
// METRICS.md). Run it through run.sh, which builds it from source.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/simcache"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its timed (untraced) run.
var workloads = map[string]func(*env) (*outcome, error){
	"cold-suite":  coldSuite,
	"warm-replay": warmReplay,
	"serve-mixed": serveMixed,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold-suite, warm-replay or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 20, "measurement budget; fixes how much work a run does")
	trace := fs.Int("trace", 0, "1 runs the instrumented per-layer run instead of the timed one")
	root := fs.String("root", ".", "checkout root holding go.mod and experiments_output.txt")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	e, err := newEnv(*root, *seed, *seconds, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	var out *outcome
	if *trace == 1 {
		out, err = traced(e, *workload)
	} else {
		out, err = fn(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	prov := provenance(e, *workload, *trace)
	prov["notes"] = out.notes
	writeJSONLine(stdout, map[string]any{"provenance": prov})
	writeJSONLine(stdout, out.result())
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is what every workload shares: where to work, the seed, the work
// budget, the simulation worker count and the reference tables.
type env struct {
	root    string
	state   string // kept across runs: recorded counts and spans
	work    string // scratch directory, removed at exit
	seed    uint64
	seconds int
	nproc   int
	log     io.Writer

	// suite overrides the stock paper suite (tests use a small one).
	suite []dacapo.Spec
	// ref holds the expected rendering of each reference table by title;
	// nil disables the byte comparison (custom suites have no reference).
	ref map[string]string
}

func newEnv(root string, seed uint64, seconds int, log io.Writer) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout: %w", root, err)
	}
	ref, err := loadReference(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, state: base, work: work, seed: seed, seconds: seconds, nproc: runtime.NumCPU(), log: log, ref: ref}, nil
}

func (e *env) specs() []dacapo.Spec {
	if e.suite != nil {
		return e.suite
	}
	return dacapo.Suite()
}

// newRunner returns a Runner with nproc simulation workers over the
// benchmark's suite, backed by store (nil: memory only).
func (e *env) newRunner(store *simcache.Store) *experiments.Runner {
	r := experiments.NewRunnerWorkers(e.nproc)
	r.SetSuite(e.suite)
	r.SetDiskCache(store)
	return r
}

// openStore opens a fresh, empty result cache in the scratch directory.
func (e *env) openStore(name string) (*simcache.Store, error) {
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return nil, err
	}
	return simcache.Open(dir, 0)
}

// matches reports whether a rendered table is byte-identical to its
// section of experiments_output.txt (always true without a reference).
func (e *env) matches(rendered string) bool {
	if e.ref == nil {
		return true
	}
	first, _, _ := strings.Cut(rendered, "\n")
	title := strings.TrimSuffix(strings.TrimPrefix(first, "== "), " ==")
	want, ok := e.ref[title]
	return ok && want == rendered
}

// loadReference splits the recorded experiment output into its tables,
// keyed by title. A table runs from its "== title ==" line through the
// blank line that ends it, exactly as report.Table renders it.
func loadReference(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	ref := map[string]string{}
	lines := strings.SplitAfter(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		title, ok := strings.CutPrefix(strings.TrimSuffix(lines[i], "\n"), "== ")
		if !ok || !strings.HasSuffix(title, " ==") {
			continue
		}
		var b strings.Builder
		for ; i < len(lines); i++ {
			b.WriteString(lines[i])
			if lines[i] == "\n" {
				break
			}
		}
		ref[strings.TrimSuffix(title, " ==")] = b.String()
	}
	if len(ref) == 0 {
		return nil, errors.New("reference output holds no tables")
	}
	return ref, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	notes             map[string]any // sample counts and other context, printed with the provenance
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// check counts one checked operation and whether it passed.
func (o *outcome) check(ok bool, what string, log io.Writer) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(log, "perfbench: check failed: %s\n", what)
	}
}

func (o *outcome) result() map[string]any {
	return map[string]any{
		"correct":   o.failed == 0 && o.attempted > 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	}
}

// finish adds the end-to-end metrics every workload reports the same way.
func (o *outcome) finish(setup []float64) {
	o.set("setup_s", median(setup), "s")
	o.notes["setup_samples"] = len(setup)
	o.set("peak_rss_mb", peakRSSMB(), "MB")
	ok := 0.0
	if o.attempted > 0 {
		ok = 1 - float64(o.failed)/float64(o.attempted)
	}
	o.set("ok_frac", ok, "frac")
}

// peakRSSMB is the process's peak resident set size. Most of its
// run-to-run spread comes from where the garbage collector's cycles fall
// relative to the live-heap peak, not from the workload.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps of numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", b)
}
