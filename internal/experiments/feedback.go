package experiments

import (
	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/report"
	"depburst/internal/sim"
)

// feedbackJob is spec under the closed-loop feedback manager.
func (r *Runner) feedbackJob(spec dacapo.Spec, threshold float64) job {
	cfg := r.Base
	cfg.Freq = FMax
	spec.Configure(&cfg)
	mcfg := energy.DefaultManagerConfig(threshold)
	return job{kind: "feedback", cfg: cfg, w: dacapo.New(spec), govern: func(m *sim.Machine) any {
		mg := energy.NewFeedbackManager(mcfg)
		m.SetGovernor(mg.Governor())
		return mg
	}, extra: []any{spec, mcfg}}
}

// FeedbackAblation compares the paper's open-loop manager with the
// closed-loop feedback extension at the 10% bound: the feedback variant
// should hold the realised slowdown closer to the bound while saving at
// least as much energy.
func (r *Runner) FeedbackAblation(threshold float64) *report.Table {
	var warm []func()
	for _, spec := range r.Suite() {
		spec := spec
		warm = append(warm,
			func() { r.TruthSummary(spec, FMax) },
			func() { r.ManagedSummary(spec, threshold) },
			func() { r.summary(r.feedbackJob(spec, threshold)) })
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title: "Extension: open-loop (paper) vs closed-loop feedback manager (10% bound)",
		Header: []string{"benchmark", "type",
			"open slowdown", "open savings", "fb slowdown", "fb savings"},
	}
	var openM, fbM, openOver, fbOver []float64
	for _, spec := range r.Suite() {
		ref := r.TruthSummary(spec, FMax)
		open := r.ManagedSummary(spec, threshold)
		fb := r.summary(r.feedbackJob(spec, threshold))
		oSlow := report.RelError(float64(open.Time), float64(ref.Time))
		oSave := 1 - float64(open.Energy)/float64(ref.Energy)
		fSlow := report.RelError(float64(fb.Time), float64(ref.Time))
		fSave := 1 - float64(fb.Energy)/float64(ref.Energy)
		openOver = append(openOver, oSlow-threshold)
		fbOver = append(fbOver, fSlow-threshold)
		if spec.Memory {
			openM = append(openM, oSave)
			fbM = append(fbM, fSave)
		}
		t.AddRow(spec.Name, spec.Class(),
			report.Pct(oSlow), report.Pct(oSave), report.Pct(fSlow), report.Pct(fSave))
	}
	t.AddRow("avg (memory)", "M", "", report.Pct(report.Mean(openM)), "", report.Pct(report.Mean(fbM)))
	t.AddNote("mean overshoot beyond the bound: open %s, feedback %s",
		report.Pct(report.Mean(openOver)), report.Pct(report.Mean(fbOver)))
	return t
}
