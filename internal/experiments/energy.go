package experiments

import (
	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/report"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// ManagedRun executes spec under the energy manager with the given
// slowdown threshold, starting (per the paper) at the maximum frequency.
// Like Truth, managed runs are memoised and singleflight-deduplicated.
//
// The returned Manager carries the governor's internal decision state; it
// is nil when the result was served from the persistent disk cache (only
// results persist, and no current experiment consumes the manager).
func (r *Runner) ManagedRun(spec dacapo.Spec, threshold float64) (*sim.Result, *energy.Manager) {
	return r.managedRun(spec, threshold, 1, r.Base.Quantum)
}

// ManagedSummary returns the head of ManagedRun(spec, threshold), the way
// TruthSummary returns Truth's.
func (r *Runner) ManagedSummary(spec dacapo.Spec, threshold float64) sim.Summary {
	return r.summary(r.managedJob(spec, threshold, 1, r.Base.Quantum))
}

// managedRun is ManagedRun with the manager's hold-off and the DVFS
// quantum exposed for the ablations.
func (r *Runner) managedRun(spec dacapo.Spec, threshold float64, holdOff int, quantum units.Time) (*sim.Result, *energy.Manager) {
	res, mgr := unwind(r.run(r.context(), r.managedJob(spec, threshold, holdOff, quantum)))
	mg, _ := mgr.(*energy.Manager)
	return res, mg
}

// managedJob is spec under the chip-wide energy manager.
func (r *Runner) managedJob(spec dacapo.Spec, threshold float64, holdOff int, quantum units.Time) job {
	cfg := r.Base
	cfg.Freq = FMax
	cfg.Quantum = quantum
	spec.Configure(&cfg)
	mcfg := energy.DefaultManagerConfig(threshold)
	mcfg.HoldOff = holdOff
	return job{kind: "chip", cfg: cfg, w: dacapo.New(spec), govern: chipGovernor(mcfg), extra: []any{spec, mcfg}}
}

// chipGovernor installs a chip-wide DEP+BURST manager on a machine.
func chipGovernor(mcfg energy.ManagerConfig) func(*sim.Machine) any {
	return func(m *sim.Machine) any {
		mg := energy.NewManager(mcfg)
		m.SetGovernor(mg.Governor())
		return mg
	}
}

// Fig6 reproduces Figure 6: per-benchmark slowdown and energy savings under
// the DEP+BURST energy manager for 5% and 10% slowdown thresholds,
// relative to always running at 4 GHz.
func (r *Runner) Fig6() *report.Table {
	thresholds := []float64{0.05, 0.10}
	var warm []func()
	for _, spec := range r.Suite() {
		spec := spec
		warm = append(warm, func() { r.TruthSummary(spec, FMax) })
		for _, thr := range thresholds {
			thr := thr
			warm = append(warm, func() { r.ManagedSummary(spec, thr) })
		}
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title: "Figure 6: energy manager (DEP+BURST), slowdown and energy savings vs 4 GHz",
		Header: []string{"benchmark", "type",
			"slowdown@5%", "savings@5%", "slowdown@10%", "savings@10%"},
	}
	var mSave5, mSave10 []float64
	for _, spec := range r.Suite() {
		ref := r.TruthSummary(spec, FMax)
		row := []string{spec.Name, spec.Class()}
		for _, thr := range thresholds {
			res := r.ManagedSummary(spec, thr)
			slow := report.RelError(float64(res.Time), float64(ref.Time))
			save := 1 - float64(res.Energy)/float64(ref.Energy)
			row = append(row, report.Pct(slow), report.Pct(save))
			if spec.Memory {
				if thr == 0.05 {
					mSave5 = append(mSave5, save)
				} else {
					mSave10 = append(mSave10, save)
				}
			}
		}
		t.AddRow(row...)
	}
	t.AddRow("avg (memory)", "M",
		"", report.Pct(report.Mean(mSave5)),
		"", report.Pct(report.Mean(mSave10)))
	t.AddNote("paper: memory-intensive average savings 13%% @5%% and 19%% @10%%")
	return t
}

// perCoreJob is spec under the per-core DVFS manager.
func (r *Runner) perCoreJob(spec dacapo.Spec, threshold float64) job {
	cfg := r.Base
	cfg.Freq = FMax
	spec.Configure(&cfg)
	mcfg := energy.DefaultManagerConfig(threshold)
	return job{kind: "percore", cfg: cfg, w: dacapo.New(spec), govern: func(m *sim.Machine) any {
		mg := energy.NewPerCoreManager(mcfg)
		m.SetCoreGovernor(mg.Governor())
		return mg
	}, extra: []any{spec, mcfg}}
}

// PerCoreDVFS is the future-work extension experiment (§VII): chip-wide
// DEP+BURST management versus independent per-core management at the same
// slowdown bound.
func (r *Runner) PerCoreDVFS(threshold float64) *report.Table {
	var warm []func()
	for _, spec := range r.Suite() {
		spec := spec
		warm = append(warm,
			func() { r.TruthSummary(spec, FMax) },
			func() { r.ManagedSummary(spec, threshold) },
			func() { r.summary(r.perCoreJob(spec, threshold)) })
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title: "Extension: chip-wide vs per-core DVFS (10% bound, savings vs 4 GHz)",
		Header: []string{"benchmark", "type",
			"chip slowdown", "chip savings", "per-core slowdown", "per-core savings"},
	}
	var chipM, coreM []float64
	for _, spec := range r.Suite() {
		ref := r.TruthSummary(spec, FMax)
		chip := r.ManagedSummary(spec, threshold)
		pc := r.summary(r.perCoreJob(spec, threshold))
		cSlow := report.RelError(float64(chip.Time), float64(ref.Time))
		cSave := 1 - float64(chip.Energy)/float64(ref.Energy)
		pSlow := report.RelError(float64(pc.Time), float64(ref.Time))
		pSave := 1 - float64(pc.Energy)/float64(ref.Energy)
		if spec.Memory {
			chipM = append(chipM, cSave)
			coreM = append(coreM, pSave)
		}
		t.AddRow(spec.Name, spec.Class(),
			report.Pct(cSlow), report.Pct(cSave), report.Pct(pSlow), report.Pct(pSave))
	}
	t.AddRow("avg (memory)", "M", "", report.Pct(report.Mean(chipM)), "", report.Pct(report.Mean(coreM)))
	t.AddNote("per-core decisions use per-core aggregate counters; they cannot see inter-core dependencies, so the slowdown bound is weaker (the open problem the paper defers)")
	return t
}

// SweepFreqs returns the static-sweep frequency grid from FMin to FMax at
// the given step (the paper's DVFS step is 125 MHz).
func SweepFreqs(step units.Freq) []units.Freq {
	if step <= 0 {
		step = 125
	}
	var freqs []units.Freq
	for f := FMin; f <= FMax; f += step {
		freqs = append(freqs, f)
	}
	return freqs
}

// staticSweep assembles the static-frequency sweep for spec from the
// Runner's memoised truth runs: a static point IS a truth run at that
// frequency, so the sweep shares the cache with every other experiment and
// fans out on the pool like everything else.
func (r *Runner) staticSweep(spec dacapo.Spec, freqs []units.Freq) []energy.StaticResult {
	out := make([]energy.StaticResult, 0, len(freqs))
	for _, f := range freqs {
		res := r.TruthSummary(spec, f)
		out = append(out, energy.StaticResult{Freq: f, Time: res.Time, Energy: res.Energy})
	}
	return out
}

// Fig7 reproduces Figure 7: the dynamic energy manager versus the
// static-optimal oracle frequency. step sets the sweep granularity (the
// paper's DVFS step is 125 MHz; coarser steps run faster).
func (r *Runner) Fig7(step units.Freq) *report.Table {
	freqs := SweepFreqs(step)
	const threshold = 0.10

	// The whole matrix up front: the per-benchmark static sweep dominates
	// wall-clock (~|freqs| truth runs each), plus the reference and the
	// managed run.
	var warm []func()
	for _, spec := range r.Suite() {
		spec := spec
		warm = append(warm,
			func() { r.TruthSummary(spec, FMax) },
			func() { r.ManagedSummary(spec, threshold) })
		for _, f := range freqs {
			f := f
			warm = append(warm, func() { r.TruthSummary(spec, f) })
		}
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title: "Figure 7: dynamic manager vs static-optimal oracle, 10% slowdown bound (energy savings vs 4 GHz)",
		Header: []string{"benchmark", "type", "dynamic@10%", "static-opt@10%",
			"static freq", "static slowdown"},
	}
	var dynM, statM []float64
	for _, spec := range r.Suite() {
		ref := r.TruthSummary(spec, FMax)

		res := r.ManagedSummary(spec, threshold)
		dyn := 1 - float64(res.Energy)/float64(ref.Energy)

		sweep := r.staticSweep(spec, freqs)
		best := energy.StaticOptimalConstrained(sweep, ref.Time, threshold)
		stat := 1 - float64(best.Energy)/float64(ref.Energy)
		slow := report.RelError(float64(best.Time), float64(ref.Time))

		if spec.Memory {
			dynM = append(dynM, dyn)
			statM = append(statM, stat)
		}
		t.AddRow(spec.Name, spec.Class(), report.Pct(dyn), report.Pct(stat),
			best.Freq.String(), report.Pct(slow))
	}
	t.AddRow("avg (memory)", "M", report.Pct(report.Mean(dynM)), report.Pct(report.Mean(statM)), "", "")
	t.AddNote("paper: dynamic beats static-optimal by ~2.1%% on memory-intensive benchmarks @10%%")
	return t
}
