package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/report"
	"depburst/internal/sampling"
	"depburst/internal/units"
)

// sampleCheckDoc is the machine-readable samplecheck report (-o FILE).
type sampleCheckDoc struct {
	Schema       string              `json:"schema"` // "depburst-samplecheck/1"
	Policy       sampling.Policy     `json:"policy"`
	FullSeconds  float64             `json:"full_seconds"`
	SampleSecs   float64             `json:"sample_seconds"`
	Speedup      float64             `json:"speedup"`
	MinSpeedup   float64             `json:"min_speedup"`
	MaxError     float64             `json:"max_error"`     // max |sampled-full|/full over all runs
	MaxBound     float64             `json:"max_bound"`     // largest reported error bound
	PredictDelta float64             `json:"predict_delta"` // shift in DEP+BURST mean-abs error
	Runs         []sampleCheckRunDoc `json:"runs"`
	Pass         bool                `json:"pass"`
}

type sampleCheckRunDoc struct {
	Bench    string  `json:"bench"`
	MHz      int64   `json:"mhz"`
	FullPS   int64   `json:"full_ps"`
	SamplePS int64   `json:"sample_ps"`
	RelError float64 `json:"rel_error"`
	Bound    float64 `json:"bound"`
	FastFrac float64 `json:"fast_frac"`
	Drops    int64   `json:"drops"`
}

// cmdSampleCheck is the sampled-mode accuracy and speed gate: run the
// Figure 1 ground-truth matrix (the stock suite at every evaluation
// frequency) cold in full-detail and sampled modes, then require that
//
//   - every sampled run's completion time lands inside the error bound the
//     run itself reported, and
//   - the cold-run wall-clock speedup clears -min-speedup.
//
// Both passes use fresh runners and no disk cache, so the timings are true
// cold-run numbers. CI runs this as the sample-accuracy job.
func cmdSampleCheck(args []string, workers int) {
	fs := flag.NewFlagSet("samplecheck", flag.ExitOnError)
	minSpeedup := fs.Float64("min-speedup", 3.0, "fail below this cold-run speedup")
	out := fs.String("o", "", "also write the machine-readable report (JSON) to FILE")
	parseFlags(fs, args)

	newRunner := func() *experiments.Runner {
		if workers > 0 {
			return experiments.NewRunnerWorkers(workers)
		}
		return experiments.NewRunner()
	}
	suite := dacapo.Suite()
	policy := sampling.DefaultPolicy()

	full := newRunner()
	start := time.Now() //depburst:allow determinism -- samplecheck times the real wall clock; the accuracy columns are deterministic
	full.Prewarm(suite, experiments.EvalFreqs...)
	//depburst:allow determinism -- wall-clock duration is the measurement
	fullWall := time.Since(start)

	sampled := newRunner()
	sampled.SetSampling(policy)
	start = time.Now() //depburst:allow determinism -- wall-clock duration is the measurement
	sampled.Prewarm(suite, experiments.EvalFreqs...)
	//depburst:allow determinism -- wall-clock duration is the measurement
	sampledWall := time.Since(start)

	doc := sampleCheckDoc{
		Schema:      "depburst-samplecheck/1",
		Policy:      policy,
		FullSeconds: fullWall.Seconds(),
		SampleSecs:  sampledWall.Seconds(),
		Speedup:     fullWall.Seconds() / sampledWall.Seconds(),
		MinSpeedup:  *minSpeedup,
	}

	t := &report.Table{
		Title:  fmt.Sprintf("samplecheck: suite x %v, cold (full %.1fs, sampled %.1fs, %.2fx)", experiments.EvalFreqs, doc.FullSeconds, doc.SampleSecs, doc.Speedup),
		Header: []string{"bench", "MHz", "full", "sampled", "error", "bound", "fast", "drops", ""},
	}
	inBound := true
	for _, spec := range suite {
		for _, f := range experiments.EvalFreqs {
			ft := full.Truth(spec, f)
			st := sampled.Truth(spec, f)
			relErr := report.RelError(float64(st.Time), float64(ft.Time))
			var bound, fastFrac float64
			var drops int64
			if st.Sampling != nil {
				bound = st.Sampling.ErrorBound
				fastFrac = st.Sampling.FastFrac()
				drops = int64(st.Sampling.Drops)
			}
			ok := math.Abs(relErr) <= bound
			mark := ""
			if !ok {
				mark = "OUT OF BOUND"
				inBound = false
			}
			doc.Runs = append(doc.Runs, sampleCheckRunDoc{
				Bench: spec.Name, MHz: int64(f),
				FullPS: int64(ft.Time), SamplePS: int64(st.Time),
				RelError: relErr, Bound: bound, FastFrac: fastFrac, Drops: drops,
			})
			if math.Abs(relErr) > doc.MaxError {
				doc.MaxError = math.Abs(relErr)
			}
			if bound > doc.MaxBound {
				doc.MaxBound = bound
			}
			t.AddRow(spec.Name, fmt.Sprintf("%d", int64(f)),
				ft.Time.String(), st.Time.String(),
				report.Pct(relErr), report.Pct(bound),
				fmt.Sprintf("%.0f%%", 100*fastFrac), fmt.Sprintf("%d", drops), mark)
		}
	}

	// How much does sampling move the paper's headline accuracy number?
	// DEP+BURST mean-abs prediction error over the Figure 1 matrix, both
	// modes — every truth involved is already memoised above.
	doc.PredictDelta = depBurstMeanAbs(sampled, suite) - depBurstMeanAbs(full, suite)

	doc.Pass = inBound && doc.Speedup >= *minSpeedup
	emit(t)
	fmt.Printf("max error %s (largest bound %s), DEP+BURST mean-abs error delta %+.2fpp, speedup %.2fx (min %.2fx)\n",
		report.PctAbs(doc.MaxError), report.PctAbs(doc.MaxBound), 100*doc.PredictDelta, doc.Speedup, *minSpeedup)

	if *out != "" {
		writeTo(*out, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
		fmt.Printf("report -> %s\n", *out)
	}
	switch {
	case !inBound:
		fmt.Println("samplecheck: FAILED (sampled run outside its reported error bound)")
		os.Exit(1)
	case doc.Speedup < *minSpeedup:
		fmt.Printf("samplecheck: FAILED (speedup %.2fx below the %.2fx gate)\n", doc.Speedup, *minSpeedup)
		os.Exit(1)
	}
	fmt.Println("samplecheck: passed")
}

// depBurstMeanAbs is Figure 1's DEP+BURST cell: the mean absolute
// prediction error over the suite, predicting every non-base evaluation
// frequency from the 1 GHz base.
func depBurstMeanAbs(r *experiments.Runner, suite []dacapo.Spec) float64 {
	m := core.NewDEPBurst()
	var errs []float64
	for _, spec := range suite {
		for _, f := range experiments.EvalFreqs {
			if f == experiments.EvalFreqs[0] {
				continue
			}
			errs = append(errs, r.PredictionError(spec, m, experiments.EvalFreqs[0], units.Freq(f)))
		}
	}
	return report.MeanAbs(errs)
}
