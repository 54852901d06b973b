package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/report"
	"depburst/internal/server"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
)

// surrogateCheckDoc is the machine-readable surrogatecheck report.
type surrogateCheckDoc struct {
	Schema  string `json:"schema"` // "depburst-surrogatecheck/2"
	Samples int    `json:"samples"`
	Groups  int    `json:"groups"`
	// Leave-one-sample-out estimates that clear the serving gate, and
	// their mean-abs error.
	SampleCleared int     `json:"sample_cleared"`
	SampleMeanAbs float64 `json:"sample_mean_abs"`
	MaxErr        float64 `json:"max_err"`
	// Leave-one-benchmark-out estimates of any confidence.
	BenchAnswers int     `json:"bench_answers"`
	ColdSimMs    float64 `json:"cold_sim_ms"`
	SurrogateUs  float64 `json:"surrogate_us"`
	Speedup      float64 `json:"speedup"`
	MinSpeedup   float64 `json:"min_speedup"`
	ServedTier0  int     `json:"served_tier0"`
	FellThrough  int     `json:"fell_through"`
	Pass         bool    `json:"pass"`
}

// cmdSurrogateCheck is the surrogate tier's accuracy and speed gate (CI's
// surrogate-accuracy job):
//
//   - held-out accuracy: every corpus sample predicted by a model trained
//     without it must clear the serving gate, with mean-abs error within
//     -max-err,
//   - no transfer: a benchmark predicted by a model trained without any
//     of its samples must get no estimate at all — tier 0 answers only
//     for configurations the corpus has simulated, and
//   - speed: the in-process /v1/predict round-trip served from the trained
//     model must beat the mean cold full-detail simulation by -min-speedup,
//     with every request actually answered at tier 0.
func cmdSurrogateCheck(args []string, workers int) {
	if code := surrogateCheck(args, workers); code != 0 {
		os.Exit(code)
	}
}

// surrogateCheck runs the gate and returns its exit status. Returning,
// instead of exiting, lets the deferred removal of the cold corpus run on
// every path.
func surrogateCheck(args []string, workers int) int {
	fs := flag.NewFlagSet("surrogatecheck", flag.ExitOnError)
	maxErr := fs.Float64("max-err", 0.05, "fail when the held-out mean-abs error exceeds this")
	minSpeedup := fs.Float64("min-speedup", 100, "fail below this surrogate-vs-cold-simulation speedup")
	out := fs.String("o", "", "also write the machine-readable report (JSON) to FILE")
	fs.Parse(args)

	newRunner := func() *experiments.Runner {
		if workers > 0 {
			return experiments.NewRunnerWorkers(workers)
		}
		return experiments.NewRunner()
	}
	suite := dacapo.Suite()

	// Build the corpus cold, timing it: the per-simulation mean is the
	// latency the fast path is judged against.
	dir, err := os.MkdirTemp("", "depburst-surrogatecheck-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	st, err := simcache.Open(dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	corpus := newRunner()
	corpus.SetDiskCache(st)
	start := time.Now() //depburst:allow determinism -- surrogatecheck times the real wall clock; the accuracy columns are deterministic
	corpus.Prewarm(suite, experiments.EvalFreqs...)
	//depburst:allow determinism -- wall-clock duration is the measurement
	coldWall := time.Since(start)
	sims := corpus.Simulations()

	samples, err := surrogate.Scan(st)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if want := len(suite) * len(experiments.EvalFreqs); len(samples) != want {
		fmt.Fprintf(os.Stderr, "surrogatecheck: corpus scan found %d samples, want %d\n", len(samples), want)
		return 1
	}

	cleared, benchAnswers := surrogateHoldout(samples)
	model := surrogate.Train(samples)
	doc := surrogateCheckDoc{
		Schema:        "depburst-surrogatecheck/2",
		Samples:       len(samples),
		Groups:        model.Summarize().Groups,
		SampleCleared: len(cleared),
		SampleMeanAbs: report.MeanAbs(cleared),
		MaxErr:        *maxErr,
		BenchAnswers:  benchAnswers,
		ColdSimMs:     1e3 * coldWall.Seconds() / float64(sims),
		MinSpeedup:    *minSpeedup,
	}

	// Serve the corpus's own request shape from the trained model through
	// the real HTTP layer. The backing runner is fresh and cache-less: a
	// single fallback would simulate, so a zero count proves tier 0 took
	// every request.
	backing := newRunner()
	srv, err := server.New(server.Config{
		Runner:    backing,
		Metrics:   metrics.NewServerRegistry(),
		Surrogate: model,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var served time.Duration
	const rounds = 5
	for i := 0; i < rounds; i++ {
		for _, spec := range suite {
			body := fmt.Sprintf(`{"bench":%q,"base_mhz":1000,"targets_mhz":[2000,3000,4000]}`, spec.Name)
			rec := newMemResponse()
			req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte(body)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			start := time.Now() //depburst:allow determinism -- request latency is the measurement
			srv.ServeHTTP(rec, req)
			//depburst:allow determinism -- request latency is the measurement
			served += time.Since(start)
			var resp struct {
				Tier string `json:"tier"`
			}
			if rec.code != http.StatusOK || json.Unmarshal(rec.body.Bytes(), &resp) != nil {
				fmt.Fprintf(os.Stderr, "surrogatecheck: %s: status %d: %s\n", spec.Name, rec.code, rec.body.Bytes())
				return 1
			}
			if resp.Tier == "surrogate" {
				doc.ServedTier0++
			} else {
				doc.FellThrough++
			}
		}
	}
	requests := rounds * len(suite)
	doc.SurrogateUs = 1e6 * served.Seconds() / float64(requests)
	doc.Speedup = doc.ColdSimMs * 1e3 / doc.SurrogateUs

	accurate := doc.SampleCleared == doc.Samples && doc.SampleMeanAbs <= *maxErr
	doc.Pass = accurate && doc.BenchAnswers == 0 &&
		doc.Speedup >= *minSpeedup && doc.FellThrough == 0 && backing.Simulations() == 0

	t := &report.Table{
		Title:  fmt.Sprintf("surrogatecheck: %d samples over %d groups (cold corpus %.1fs, %d sims)", doc.Samples, doc.Groups, coldWall.Seconds(), sims),
		Header: []string{"held out", "cleared gate", "mean-abs err", "gate"},
	}
	t.AddRow("one sample", fmt.Sprintf("%d/%d", doc.SampleCleared, doc.Samples), report.PctAbs(doc.SampleMeanAbs), fmt.Sprintf("all, <= %s", report.PctAbs(*maxErr)))
	t.AddRow("one benchmark", fmt.Sprintf("%d answered", doc.BenchAnswers), "-", "none answered")
	emit(t)
	fmt.Printf("serving: %d/%d requests at tier 0, mean %.0fus vs %.1fms cold sim = %.0fx (min %.0fx)\n",
		doc.ServedTier0, requests, doc.SurrogateUs, doc.ColdSimMs, doc.Speedup, *minSpeedup)

	if *out != "" {
		err := writeFile(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("report -> %s\n", *out)
	}
	switch {
	case !accurate:
		fmt.Printf("surrogatecheck: FAILED (%d/%d held-out samples cleared the gate, mean-abs error %s, limit %s)\n",
			doc.SampleCleared, doc.Samples, report.PctAbs(doc.SampleMeanAbs), report.PctAbs(*maxErr))
		return 1
	case doc.BenchAnswers > 0:
		fmt.Printf("surrogatecheck: FAILED (%d estimates for benchmarks outside the corpus)\n", doc.BenchAnswers)
		return 1
	case doc.FellThrough > 0 || backing.Simulations() != 0:
		fmt.Printf("surrogatecheck: FAILED (%d requests fell through to simulation)\n", doc.FellThrough)
		return 1
	case doc.Speedup < *minSpeedup:
		fmt.Printf("surrogatecheck: FAILED (speedup %.0fx below the %.0fx gate)\n", doc.Speedup, *minSpeedup)
		return 1
	}
	fmt.Println("surrogatecheck: passed")
	return 0
}

// surrogateHoldout cross-validates the corpus the way the serving tier is
// used, in two folds. Every sample is predicted by a model trained without
// it; cleared holds the signed relative errors of the estimates that clear
// the serving gate. Every benchmark is predicted by a model trained
// without any of its samples; benchAnswers counts the estimates that fold
// gets, of any confidence.
func surrogateHoldout(samples []surrogate.Sample) (cleared []float64, benchAnswers int) {
	for i, s := range samples {
		rest := make([]surrogate.Sample, 0, len(samples)-1)
		rest = append(rest, samples[:i]...)
		rest = append(rest, samples[i+1:]...)
		est, ok := surrogate.Train(rest).Predict(s.Config, s.Spec)
		if ok && est.Confidence >= surrogate.DefaultMinConfidence {
			cleared = append(cleared, report.RelError(float64(est.Time), float64(s.Time)))
		}
	}
	var benches []string
	for _, s := range samples {
		if !slices.Contains(benches, s.Spec.Name) {
			benches = append(benches, s.Spec.Name)
		}
	}
	for _, b := range benches {
		var rest, held []surrogate.Sample
		for _, s := range samples {
			if s.Spec.Name == b {
				held = append(held, s)
			} else {
				rest = append(rest, s)
			}
		}
		m := surrogate.Train(rest)
		for _, s := range held {
			if _, ok := m.Predict(s.Config, s.Spec); ok {
				benchAnswers++
			}
		}
	}
	return cleared, benchAnswers
}

// memResponse is a minimal in-process http.ResponseWriter for driving the
// server handler without a listener.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newMemResponse() *memResponse {
	return &memResponse{header: http.Header{}, code: http.StatusOK}
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(c int)           { m.code = c }
func (m *memResponse) Write(b []byte) (int, error) { return m.body.Write(b) }
