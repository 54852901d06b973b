package experiments

import (
	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/report"
	"depburst/internal/units"
)

// PredictionError runs spec at base, predicts at target with model, and
// returns the relative error (predicted/actual - 1).
func (r *Runner) PredictionError(spec dacapo.Spec, m core.Model, base, target units.Freq) float64 {
	return predictionError(m, Observe(r.Truth(spec, base)), target, r.TruthSummary(spec, target).Time)
}

// predictionError is the relative error of m predicting, from the base
// observation obs, a run at target that measured actual.
func predictionError(m core.Model, obs *core.Observation, target units.Freq, actual units.Time) float64 {
	return report.RelError(float64(m.Predict(obs, target)), float64(actual))
}

// basesAndTargets fetches, in one fan-out, the full runs of specs at base
// and the heads of their runs at every target, and returns the bases'
// observations in spec order.
func (r *Runner) basesAndTargets(specs []dacapo.Spec, base units.Freq, targets ...units.Freq) []*core.Observation {
	var obs []*core.Observation
	r.FanOut(
		func() { r.Prewarm(specs, targets...) },
		func() { obs = r.Observations(specs, base) })
	return obs
}

// observePair fetches the suite's full runs at two frequencies in one
// fan-out, for experiments that predict in both directions: each run is
// one direction's base and, through its Total, the other's truth.
func (r *Runner) observePair(a, b units.Freq) (oa, ob []*core.Observation) {
	r.FanOut(
		func() { oa = r.Observations(r.Suite(), a) },
		func() { ob = r.Observations(r.Suite(), b) })
	return oa, ob
}

// direction is one way of predicting between the runs observePair
// fetched: from the base observations to the target's.
type direction struct {
	name     string
	target   units.Freq
	from, to []*core.Observation
}

// directions are 1 GHz to 4 GHz and back, over observePair(1000, 4000).
func directions(lo, hi []*core.Observation) []direction {
	return []direction{{"1->4GHz", 4000, lo, hi}, {"4->1GHz", 1000, hi, lo}}
}

// Fig1 reproduces Figure 1: average absolute prediction error of M+CRIT
// versus DEP+BURST for target frequencies 2-4 GHz from a 1 GHz baseline.
func (r *Runner) Fig1() *report.Table {
	targets := []units.Freq{2000, 3000, 4000}
	obs := r.basesAndTargets(r.Suite(), 1000, targets...)
	models := []core.Model{
		core.NewMCrit(core.Options{}),
		core.NewDEPBurst(),
	}
	t := &report.Table{
		Title:  "Figure 1: average absolute prediction error vs target frequency (base 1 GHz)",
		Header: []string{"target", "M+CRIT", "DEP+BURST"},
	}
	for _, target := range targets {
		row := []string{target.String()}
		for _, m := range models {
			var errs []float64
			for i, spec := range r.Suite() {
				errs = append(errs, predictionError(m, obs[i], target, r.TruthSummary(spec, target).Time))
			}
			row = append(row, report.PctAbs(report.MeanAbs(errs)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: M+CRIT 27%% and DEP+BURST 6%% at 4 GHz")
	return t
}

// fig3 builds one direction of Figure 3: per-benchmark errors for all six
// models at each target frequency.
func (r *Runner) fig3(title string, base units.Freq, targets []units.Freq) *report.Table {
	obs := r.basesAndTargets(r.Suite(), base, targets...)
	models := Models()
	header := []string{"benchmark", "target"}
	for _, m := range models {
		header = append(header, m.Name())
	}
	t := &report.Table{Title: title, Header: header}

	errsByModel := make([][]float64, len(models))
	for i, spec := range r.Suite() {
		for _, target := range targets {
			actual := r.TruthSummary(spec, target).Time
			row := []string{spec.Name, target.String()}
			for mi, m := range models {
				e := predictionError(m, obs[i], target, actual)
				errsByModel[mi] = append(errsByModel[mi], e)
				row = append(row, report.Pct(e))
			}
			t.AddRow(row...)
		}
	}
	avg := []string{"avg abs", "all"}
	for mi := range models {
		avg = append(avg, report.PctAbs(report.MeanAbs(errsByModel[mi])))
	}
	t.AddRow(avg...)

	// Per-target averages (the figure's rightmost bars at each target).
	for ti, target := range targets {
		row := []string{"avg abs", target.String()}
		for mi := range models {
			var sub []float64
			for bi := 0; bi < len(r.Suite()); bi++ {
				sub = append(sub, errsByModel[mi][bi*len(targets)+ti])
			}
			row = append(row, report.PctAbs(report.MeanAbs(sub)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3a reproduces Figure 3(a): predicting higher frequencies from 1 GHz.
func (r *Runner) Fig3a() *report.Table {
	t := r.fig3("Figure 3(a): prediction error, base 1 GHz -> higher targets",
		1000, []units.Freq{2000, 3000, 4000})
	t.AddNote("paper avg abs at 4 GHz: M+CRIT 27%%, COOP 22%%, DEP 19%%, DEP+BURST 6%%")
	return t
}

// Fig3b reproduces Figure 3(b): predicting lower frequencies from 4 GHz.
func (r *Runner) Fig3b() *report.Table {
	t := r.fig3("Figure 3(b): prediction error, base 4 GHz -> lower targets",
		4000, []units.Freq{3000, 2000, 1000})
	t.AddNote("paper avg abs at 1 GHz: M+CRIT 70%%, COOP 63%%, DEP 57%%, DEP+BURST 8%%")
	return t
}

// Fig4 reproduces Figure 4: DEP+BURST with across-epoch versus per-epoch
// critical thread prediction, in both directions.
func (r *Runner) Fig4() *report.Table {
	lo, hi := r.observePair(1000, 4000)
	across := core.NewDEP(core.Options{Burst: true})
	per := core.NewDEP(core.Options{Burst: true, PerEpochCTP: true})
	t := &report.Table{
		Title:  "Figure 4: across-epoch vs per-epoch CTP (DEP+BURST)",
		Header: []string{"benchmark", "direction", "across-epoch", "per-epoch"},
	}
	sums := map[string][]float64{}
	for i, spec := range r.Suite() {
		for _, d := range directions(lo, hi) {
			ea := predictionError(across, d.from[i], d.target, d.to[i].Total)
			ep := predictionError(per, d.from[i], d.target, d.to[i].Total)
			sums["a"+d.name] = append(sums["a"+d.name], ea)
			sums["p"+d.name] = append(sums["p"+d.name], ep)
			t.AddRow(spec.Name, d.name, report.Pct(ea), report.Pct(ep))
		}
	}
	for _, d := range directions(lo, hi) {
		t.AddRow("avg abs", d.name,
			report.PctAbs(report.MeanAbs(sums["a"+d.name])),
			report.PctAbs(report.MeanAbs(sums["p"+d.name])))
	}
	t.AddNote("paper: across-epoch 6%%/8%% vs per-epoch 10%%/14%% (1->4 / 4->1 GHz)")
	return t
}

// Table1 reproduces Table I: benchmark class, heap size, execution time and
// GC time at 1 GHz (simulated values are ~100x compressed vs the paper).
func (r *Runner) Table1() *report.Table {
	r.Prewarm(r.Suite(), 1000)
	t := &report.Table{
		Title:  "Table I: benchmarks at 1 GHz (times ~100x compressed vs paper)",
		Header: []string{"benchmark", "type", "heap(MB)", "exec(ms)", "gc(ms)", "gc%", "minor", "major"},
	}
	for _, spec := range r.Suite() {
		res := r.TruthSummary(spec, 1000)
		t.AddRow(spec.Name, spec.Class(),
			itoa(spec.HeapMB),
			f2(res.Time.Milliseconds()),
			f2(res.GC.GCTime.Milliseconds()),
			report.PctAbs(float64(res.GC.GCTime)/float64(res.Time)),
			itoa(res.GC.MinorGCs), itoa(res.GC.MajorGCs))
	}
	return t
}
