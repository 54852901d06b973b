package experiments

import (
	"fmt"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/report"
)

// HeapPressureSweep varies the nursery size on one benchmark: smaller
// nurseries collect more often (more epochs, more store bursts per unit
// time), larger ones collect rarely. The paper evaluates at "moderate,
// reasonable heap pressure"; this sweep shows the predictor holds across
// the pressure range.
func (r *Runner) HeapPressureSweep(bench string) *report.Table {
	spec, err := dacapo.ByName(bench)
	if err != nil {
		panic(err)
	}
	t := &report.Table{
		Title:  "Sensitivity: nursery size (" + bench + ")",
		Header: []string{"nursery", "GCs", "gc%", "epochs", "DEP+BURST 1->4", "M+CRIT 1->4"},
	}
	dep := core.NewDEPBurst()
	mcrit := core.NewMCrit(core.Options{})
	nurseries := []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	// Nursery is part of the spec, so each point has its own memo key: the
	// whole sweep fans out on this Runner before rows are assembled.
	specs := make([]dacapo.Spec, len(nurseries))
	for i, nursery := range nurseries {
		specs[i] = spec
		specs[i].Nursery = nursery
	}
	r.Prewarm(specs, 1000, 4000)

	for i, nursery := range nurseries {
		s := specs[i]
		res := r.Truth(s, 1000)
		gcFrac := float64(res.GC.GCTime) / float64(res.Time)
		eDep := r.PredictionError(s, dep, 1000, 4000)
		eM := r.PredictionError(s, mcrit, 1000, 4000)
		t.AddRow(fmt.Sprintf("%dKiB", nursery>>10),
			itoa(res.GC.MinorGCs+res.GC.MajorGCs),
			report.PctAbs(gcFrac),
			itoa(len(res.Epochs)),
			report.Pct(eDep), report.Pct(eM))
	}
	t.AddNote("the predictor must stay accurate from GC-every-few-items down to almost no GC")
	return t
}
