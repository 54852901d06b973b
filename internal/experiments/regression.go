package experiments

import (
	"depburst/internal/core"
	"depburst/internal/report"
	"depburst/internal/units"
)

// RegressionComparison contrasts the paper's analytical DEP+BURST predictor
// with the related-work regression alternative (§VII-A): fit T(f) offline
// from two profiling runs (1 and 2 GHz), then predict 3 and 4 GHz. The
// regression family needs no special counters but an extra profiling run —
// and it cannot see phase behaviour, which is where it loses.
func (r *Runner) RegressionComparison() *report.Table {
	t := &report.Table{
		Title: "Comparison: DEP+BURST (one run, counters) vs offline regression (two runs)",
		Header: []string{"benchmark", "target",
			"regression", "DEP+BURST"},
	}
	dep := core.NewDEPBurst()
	// Profiling runs happen on a different day than the deployment run:
	// model run-to-run variation with a different workload seed for the
	// training runs (inputs vary between invocations in practice).
	trainer := *r
	trainer.Base.Seed = r.Base.Seed + 100
	var obs []*core.Observation
	r.FanOut(
		func() { trainer.Prewarm(r.Suite(), 1000, 2000) },
		func() { obs = r.basesAndTargets(r.Suite(), 1000, 3000, 4000) })
	var regErrs, depErrs []float64
	for i, spec := range r.Suite() {
		t1 := trainer.TruthSummary(spec, 1000)
		t2 := trainer.TruthSummary(spec, 2000)
		reg, err := core.FitRegression([]core.TrainingPoint{
			{Freq: 1000, Time: t1.Time},
			{Freq: 2000, Time: t2.Time},
		})
		if err != nil {
			panic(err)
		}
		for _, target := range []units.Freq{3000, 4000} {
			actual := r.TruthSummary(spec, target).Time
			eReg := report.RelError(float64(reg.Predict(nil, target)), float64(actual))
			eDep := predictionError(dep, obs[i], target, actual)
			regErrs = append(regErrs, eReg)
			depErrs = append(depErrs, eDep)
			t.AddRow(spec.Name, target.String(), report.Pct(eReg), report.Pct(eDep))
		}
	}
	t.AddRow("avg abs", "", report.PctAbs(report.MeanAbs(regErrs)), report.PctAbs(report.MeanAbs(depErrs)))
	t.AddNote("regression extrapolates two whole-run times; DEP+BURST predicts from one run's counters")
	t.AddNote("on stationary whole-run prediction the two are competitive; regression has no per-interval signal, so it cannot drive the quantum-level energy manager, and it costs one extra profiling run per application")
	return t
}
