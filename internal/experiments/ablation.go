package experiments

import (
	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/report"
	"depburst/internal/units"
)

// EngineAblation compares the per-thread estimator engines (Stall Time,
// Leading Loads, CRIT — §II-A) inside the full DEP+BURST epoch model: the
// paper's motivation for building on CRIT.
func (r *Runner) EngineAblation() *report.Table {
	r.Prewarm(r.Suite(), 1000, 4000)
	engines := []core.Engine{core.StallTime, core.LeadingLoads, core.CRIT}
	t := &report.Table{
		Title:  "Ablation: per-thread engine inside DEP+BURST (avg abs error)",
		Header: []string{"direction", "STALL", "LL", "CRIT"},
	}
	type dir struct {
		name         string
		base, target units.Freq
	}
	for _, d := range []dir{{"1->4GHz", 1000, 4000}, {"4->1GHz", 4000, 1000}} {
		row := []string{d.name}
		for _, eng := range engines {
			m := core.NewDEP(core.Options{Engine: eng, Burst: true})
			var errs []float64
			for _, spec := range r.Suite() {
				errs = append(errs, r.PredictionError(spec, m, d.base, d.target))
			}
			row = append(row, report.PctAbs(report.MeanAbs(errs)))
		}
		t.AddRow(row...)
	}
	t.AddNote("CRIT handles variable DRAM latency; Leading Loads assumes constant; Stall Time underestimates")
	return t
}

// HoldOffAblation sweeps the energy manager's Hold-Off parameter on one
// memory-intensive benchmark (paper §VI-A discusses the trade-off).
func (r *Runner) HoldOffAblation(bench string) *report.Table {
	spec, err := dacapo.ByName(bench)
	if err != nil {
		panic(err)
	}
	holds := []int{1, 2, 4, 8}
	warm := []func(){func() { r.Truth(spec, FMax) }}
	for _, hold := range holds {
		hold := hold
		warm = append(warm, func() { r.managedRun(spec, 0.10, hold, r.Base.Quantum) })
	}
	r.FanOut(warm...)

	ref := r.Truth(spec, FMax)
	t := &report.Table{
		Title:  "Ablation: energy-manager Hold-Off (" + bench + ", 10% threshold)",
		Header: []string{"hold-off", "slowdown", "savings", "transitions"},
	}
	for _, hold := range holds {
		res, _ := r.managedRun(spec, 0.10, hold, r.Base.Quantum)
		slow := report.RelError(float64(res.Time), float64(ref.Time))
		save := 1 - float64(res.Energy)/float64(ref.Energy)
		t.AddRow(itoa(hold), report.Pct(slow), report.Pct(save), itoa(res.Transitions))
	}
	return t
}

// QuantumAblation sweeps the scheduling quantum on one benchmark.
func (r *Runner) QuantumAblation(bench string) *report.Table {
	spec, err := dacapo.ByName(bench)
	if err != nil {
		panic(err)
	}
	quanta := []units.Time{20 * units.Microsecond, 50 * units.Microsecond, 100 * units.Microsecond, 200 * units.Microsecond}
	warm := []func(){func() { r.Truth(spec, FMax) }}
	for _, q := range quanta {
		q := q
		warm = append(warm, func() { r.managedRun(spec, 0.10, 1, q) })
	}
	r.FanOut(warm...)

	ref := r.Truth(spec, FMax)
	t := &report.Table{
		Title:  "Ablation: DVFS quantum (" + bench + ", 10% threshold)",
		Header: []string{"quantum", "slowdown", "savings"},
	}
	for _, q := range quanta {
		res, _ := r.managedRun(spec, 0.10, 1, q)
		slow := report.RelError(float64(res.Time), float64(ref.Time))
		save := 1 - float64(res.Energy)/float64(ref.Energy)
		t.AddRow(q.String(), report.Pct(slow), report.Pct(save))
	}
	return t
}

// DRAMVariabilityAblation demonstrates why CRIT is the right per-thread
// engine (§II-A): with the realistic variable-latency DRAM (row hits,
// conflicts, queueing), CRIT's chain accounting beats Leading Loads'
// constant-latency assumption; with an idealised fixed-latency memory the
// two engines converge.
func (r *Runner) DRAMVariabilityAblation() *report.Table {
	fixed := *r
	fixed.Base.Hier.DRAM.TRCD = 0
	fixed.Base.Hier.DRAM.TRP = 0
	fixed.Base.Hier.DRAM.TCAS = 27500 // one uniform 27.5 ns access

	r.FanOut(
		func() { r.Prewarm(r.Suite(), 4000, 1000) },
		func() { fixed.Prewarm(r.Suite(), 4000, 1000) })

	t := &report.Table{
		Title:  "Ablation: variable vs fixed DRAM latency, DEP+BURST engines (avg abs error, 4->1 GHz)",
		Header: []string{"memory model", "CRIT", "LL", "LL-CRIT gap"},
	}
	for _, row := range []struct {
		name string
		rn   *Runner
	}{{"variable (default)", r}, {"fixed latency", &fixed}} {
		var errCrit, errLL []float64
		for _, spec := range r.Suite() {
			crit := core.NewDEP(core.Options{Engine: core.CRIT, Burst: true})
			ll := core.NewDEP(core.Options{Engine: core.LeadingLoads, Burst: true})
			errCrit = append(errCrit, row.rn.PredictionError(spec, crit, 4000, 1000))
			errLL = append(errLL, row.rn.PredictionError(spec, ll, 4000, 1000))
		}
		c, l := report.MeanAbs(errCrit), report.MeanAbs(errLL)
		t.AddRow(row.name, report.PctAbs(c), report.PctAbs(l), report.Pct(l-c))
	}
	t.AddNote("uniform device latency narrows the gap; the residual comes from dependent miss chains, which Leading Loads cannot see either")
	return t
}

// Table2 prints the simulated system configuration (the paper's Table II).
func (r *Runner) Table2() *report.Table {
	cfg := r.Base
	t := &report.Table{
		Title:  "Table II: simulated system parameters",
		Header: []string{"component", "parameters"},
	}
	t.AddRow("cores", itoa(cfg.Cores)+" out-of-order, "+FMin.String()+" to "+FMax.String())
	t.AddRow("dispatch width", itoa(cfg.Core.DispatchWidth))
	t.AddRow("ROB", itoa(cfg.Core.ROBSize)+" entries")
	t.AddRow("store queue", itoa(cfg.Core.StoreQueueSize)+" entries")
	t.AddRow("MSHRs", itoa(cfg.Core.MSHRs))
	t.AddRow("L2 (private)", itoa(cfg.Hier.L2.SizeBytes>>10)+" KiB, "+itoa(cfg.Hier.L2.Ways)+"-way")
	t.AddRow("L3 (shared)", itoa(cfg.Hier.L3.SizeBytes>>20)+" MiB, "+itoa(cfg.Hier.L3.Ways)+"-way, "+cfg.Hier.L3Latency.String()+" (fixed uncore clock)")
	t.AddRow("DRAM", itoa(cfg.Hier.DRAM.Banks)+" banks, "+cfg.Hier.DRAM.TBurst.String()+"/line bus, tRCD/tCAS/tRP "+cfg.Hier.DRAM.TRCD.String())
	t.AddRow("DVFS quantum", cfg.Quantum.String())
	t.AddRow("DVFS transition", cfg.TransitionLatency.String())
	return t
}
