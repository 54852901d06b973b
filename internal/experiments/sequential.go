package experiments

import (
	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/report"
	"depburst/internal/sim"
	"depburst/internal/trace"
	"depburst/internal/units"
)

// seqWorkload is a single-threaded native-style workload (no allocation,
// no synchronization) with a configurable memory profile — the setting the
// prior-work predictors of §II-A were built for.
type seqWorkload struct {
	name    string
	profile trace.Profile
	instrs  int64
}

func (w seqWorkload) Name() string { return w.name }

func (w seqWorkload) Setup(m *sim.Machine) {
	m.Kern.Spawn("seq", kernel.ClassApp, 0, func(e *kernel.Env) {
		r := m.Rng.Fork(0x5E9)
		var blk cpu.Block
		remaining := w.instrs
		for remaining > 0 {
			n := int64(16_000)
			if remaining < n {
				n = remaining
			}
			trace.FillBlock(&blk, w.profile, n, r)
			e.Compute(&blk)
			remaining -= n
		}
	})
}

// seqSuite is a spread of single-threaded profiles from compute-bound to
// pointer-chasing memory-bound.
func seqSuite() []seqWorkload {
	region := func(mb int64) trace.RandomRegion {
		return trace.RandomRegion{Base: 1 << 44, Size: mb << 20}
	}
	return []seqWorkload{
		{name: "seq-compute", instrs: 40_000_000, profile: trace.Profile{
			IPC: 2.6, LoadsPerKI: 4, Addr: region(1)}},
		{name: "seq-streaming", instrs: 24_000_000, profile: trace.Profile{
			IPC: 2.0, LoadsPerKI: 14, StoresPerKI: 5, DepFrac: 0.05, Addr: region(24)}},
		{name: "seq-pointer", instrs: 12_000_000, profile: trace.Profile{
			IPC: 1.6, LoadsPerKI: 10, DepFrac: 0.7, Addr: region(24)}},
		{name: "seq-mixed", instrs: 20_000_000, profile: trace.Profile{
			IPC: 2.0, LoadsPerKI: 10, StoresPerKI: 4, DepFrac: 0.3, Addr: region(12)}},
	}
}

// SequentialBackground reproduces the prior-work landscape of §II-A on
// single-threaded workloads: Stall Time underestimates, Leading Loads
// assumes constant latency, CRIT tracks the critical path. For a single
// thread every multithreaded model degenerates to the per-thread engine,
// so this isolates the engines themselves.
func (r *Runner) SequentialBackground() *report.Table {
	var warm []func()
	for _, w := range seqSuite() {
		w := w
		warm = append(warm,
			func() { r.seqTruth(w, 1000) },
			func() { r.seqTruth(w, 4000) })
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title:  "Background (§II-A): single-thread engines on sequential workloads (error, 1->4 GHz)",
		Header: []string{"workload", "STALL", "LL", "CRIT", "CRIT+BURST"},
	}
	engines := []core.Options{
		{Engine: core.StallTime},
		{Engine: core.LeadingLoads},
		{Engine: core.CRIT},
		{Engine: core.CRIT, Burst: true},
	}
	sums := make([][]float64, len(engines))
	for _, w := range seqSuite() {
		base := r.seqTruth(w, 1000)
		target := r.seqTruth(w, 4000)
		obs := Observe(base)
		row := []string{w.name}
		for ei, opts := range engines {
			m := core.NewMCrit(opts) // single thread: M+CRIT == the engine
			e := report.RelError(float64(m.Predict(obs, 4000)), float64(target.Time))
			sums[ei] = append(sums[ei], e)
			row = append(row, report.Pct(e))
		}
		t.AddRow(row...)
	}
	avg := []string{"avg abs"}
	for _, s := range sums {
		avg = append(avg, report.PctAbs(report.MeanAbs(s)))
	}
	t.AddRow(avg...)
	t.AddNote("single-threaded: DEP's epoch machinery is moot; the engines are exposed directly")
	t.AddNote("Stall Time fares better here than on real hardware: the interval core model measures commit stalls exactly, whereas real pipelines hide them")
	return t
}

// seqTruth runs a sequential workload at f (memoised and deduplicated
// alongside benchmark runs). The workload's fields are unexported, so JSON
// would encode it as {}: its identity enters the key field by field.
func (r *Runner) seqTruth(w seqWorkload, f units.Freq) *sim.Result {
	cfg := r.Base
	cfg.Freq = f
	res, _ := unwind(r.run(r.context(), "seq", cfg, w, nil, w.name, w.profile, w.instrs))
	return res
}
