package experiments

import (
	"fmt"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/metrics"
	"depburst/internal/report"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// InstrumentedRun executes one fresh simulation of spec with an
// observability registry attached and returns both. Unlike Truth the run is
// not memoised — the registry belongs to exactly this execution — but it
// is simulated like any other: it takes a worker-pool slot, counts in
// Simulations and unwinds when the Runner's context is cancelled (see
// Cancelable). With managed set, the run is ManagedRun's: it starts at
// the maximum frequency and the DEP+BURST energy manager governs DVFS at
// the given slowdown threshold (f is ignored); otherwise it is Truth's run
// at f.
func (r *Runner) InstrumentedRun(spec dacapo.Spec, f units.Freq, managed bool, threshold float64) (*sim.Result, *metrics.Registry) {
	j := r.truthJob(spec, f)
	if managed {
		j = r.managedJob(spec, threshold, 1, r.Base.Quantum)
	}
	reg := metrics.NewRegistry()
	j.cfg.Metrics = reg
	res, _ := unwind(r.simulate(r.context(), j, ""))
	return res, reg
}

// wallCPI converts a wall-clock duration at frequency f plus an instruction
// count into cycles per instruction.
func wallCPI(d units.Time, f units.Freq, instrs int64) float64 {
	if instrs <= 0 {
		return 0
	}
	// d is picoseconds and f is MHz, so cycles = d * f / 1e6.
	return float64(d) * float64(f) / 1e6 / float64(instrs)
}

// ErrorBreakdown fills reg with the prediction-error telemetry for
// predicting spec's execution time at target from its base-frequency run
// with the given model options: one EpochError per epoch (component split
// plus CPI deltas) and the run-level predicted-vs-truth summary. Both
// endpoint runs come from the Runner's memoised truth cache.
func (r *Runner) ErrorBreakdown(spec dacapo.Spec, o core.Options, base, target units.Freq, reg *metrics.Registry) {
	baseRes := r.Truth(spec, base)
	truth := r.Truth(spec, target)

	var predicted units.Time
	for _, b := range core.BreakdownEpochs(baseRes.Epochs, base, target, o) {
		predicted += b.Pred
		reg.RecordEpochError(metrics.EpochError{
			Start:    b.Start,
			Dur:      b.Dur,
			Pred:     b.Pred,
			Instrs:   b.Instrs,
			Pipeline: b.Pipeline,
			Memory:   b.Memory,
			Burst:    b.Burst,
			Idle:     b.Idle,
			CPIBase:  wallCPI(b.Dur, base, b.Instrs),
			CPIPred:  wallCPI(b.Pred, target, b.Instrs),
		})
	}
	reg.SetPredictionSummary(metrics.PredictionSummary{
		Model:     core.NewDEP(o).Name(),
		Base:      base,
		Target:    target,
		Predicted: predicted,
		Actual:    truth.Time,
		CPITruth:  wallCPI(truth.Time, target, truth.TotalCounters().Instrs),
	})
}

// ErrorBreakdownTable renders the per-benchmark prediction-error breakdown
// for DEP+BURST over the whole suite: where the predicted time comes from
// (pipeline vs memory vs burst vs idle) and how far the prediction landed
// from the measured truth.
func (r *Runner) ErrorBreakdownTable(base, target units.Freq) *report.Table {
	// ErrorBreakdown reads both runs in full.
	r.observePair(base, target)

	t := &report.Table{
		Title: fmt.Sprintf("Prediction-error breakdown: DEP+BURST, %v -> %v", base, target),
		Header: []string{"benchmark", "type", "predicted", "actual", "error",
			"pipeline", "memory", "burst", "idle"},
	}
	o := core.Options{Burst: true}
	for _, spec := range r.Suite() {
		reg := metrics.NewRegistry()
		r.ErrorBreakdown(spec, o, base, target, reg)
		s := reg.Summary()
		var pipe, mem, burst, idle units.Time
		for _, e := range reg.EpochErrors() {
			pipe += e.Pipeline
			mem += e.Memory
			burst += e.Burst
			idle += e.Idle
		}
		frac := func(c units.Time) string {
			if s.Predicted <= 0 {
				return "-"
			}
			return report.Pct(float64(c) / float64(s.Predicted))
		}
		t.AddRow(spec.Name, spec.Class(),
			s.Predicted.String(), s.Actual.String(),
			report.Pct(report.RelError(float64(s.Predicted), float64(s.Actual))),
			frac(pipe), frac(mem), frac(burst), frac(idle))
	}
	t.AddNote("components sum to the predicted time; idle folds in epoch slack, so it can be negative")
	return t
}
