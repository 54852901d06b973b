package experiments

import (
	"depburst/internal/core"
	"depburst/internal/jvm"
	"depburst/internal/report"
)

// GCPolicyAblation swaps the generational collector for a full-heap
// semispace collector and reports how the runtime and the predictor react:
// the same benchmarks become substantially more GC- and memory-bound, and
// DEP+BURST must keep tracking them.
func (r *Runner) GCPolicyAblation() *report.Table {
	semi := *r
	semi.Base.JVM.Policy = jvm.FullHeapSemispace

	var genObs, semiObs []*core.Observation
	r.FanOut(
		func() { genObs = r.basesAndTargets(r.Suite(), 1000, 4000) },
		func() { semiObs = semi.basesAndTargets(r.Suite(), 1000, 4000) })

	t := &report.Table{
		Title: "Ablation: GC policy (generational vs full-heap semispace)",
		Header: []string{"benchmark",
			"gen gc%", "semi gc%", "gen DEP+BURST 1->4", "semi DEP+BURST 1->4"},
	}
	m := core.NewDEPBurst()
	for i, spec := range r.Suite() {
		if !spec.Memory {
			continue // the contrast only matters where GC matters
		}
		gen := r.TruthSummary(spec, 1000)
		sm := semi.TruthSummary(spec, 1000)
		genGC := float64(gen.GC.GCTime) / float64(gen.Time)
		semiGC := float64(sm.GC.GCTime) / float64(sm.Time)
		eGen := predictionError(m, genObs[i], 4000, r.TruthSummary(spec, 4000).Time)
		eSemi := predictionError(m, semiObs[i], 4000, semi.TruthSummary(spec, 4000).Time)
		t.AddRow(spec.Name,
			report.PctAbs(genGC), report.PctAbs(semiGC),
			report.Pct(eGen), report.Pct(eSemi))
	}
	t.AddNote("semispace collections copy the whole live heap every time: more GC time, same predictor accuracy")
	return t
}

// PrefetchAblation turns on the L2 next-line prefetcher and reports its
// effect on runtime and on prediction accuracy: prefetching shortens the
// sequential (GC copy) misses, shifting work between the scaling and
// non-scaling components that the predictors must re-balance.
func (r *Runner) PrefetchAblation() *report.Table {
	pf := *r
	pf.Base.Hier.NextLinePrefetch = true

	var offObs, onObs []*core.Observation
	r.FanOut(
		func() { offObs = r.basesAndTargets(r.Suite(), 1000, 4000) },
		func() { onObs = pf.basesAndTargets(r.Suite(), 1000, 4000) })

	t := &report.Table{
		Title: "Ablation: L2 next-line prefetcher",
		Header: []string{"benchmark",
			"time off", "time on", "speedup", "DEP+BURST 1->4 off", "on"},
	}
	m := core.NewDEPBurst()
	for i, spec := range r.Suite() {
		off := r.TruthSummary(spec, 1000)
		on := pf.TruthSummary(spec, 1000)
		speed := float64(off.Time)/float64(on.Time) - 1
		eOff := predictionError(m, offObs[i], 4000, r.TruthSummary(spec, 4000).Time)
		eOn := predictionError(m, onObs[i], 4000, pf.TruthSummary(spec, 4000).Time)
		t.AddRow(spec.Name,
			f2(off.Time.Milliseconds()), f2(on.Time.Milliseconds()),
			report.Pct(speed), report.Pct(eOff), report.Pct(eOn))
	}
	return t
}
