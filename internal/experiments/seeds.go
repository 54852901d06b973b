package experiments

import (
	"fmt"

	"depburst/internal/core"
	"depburst/internal/report"
	"depburst/internal/units"
)

// SeedSensitivity checks that the headline accuracy result is robust to
// the workload generator's random seed: the suite-average absolute error of
// M+CRIT and DEP+BURST for each seed, in both directions.
func (r *Runner) SeedSensitivity(seeds []uint64) *report.Table {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	t := &report.Table{
		Title:  "Robustness: prediction error vs workload seed (suite avg abs)",
		Header: []string{"seed", "M+CRIT 1->4", "DEP+BURST 1->4", "M+CRIT 4->1", "DEP+BURST 4->1"},
	}
	type dir struct{ base, target units.Freq }
	dirs := []dir{{1000, 4000}, {4000, 1000}}
	models := []core.Model{core.NewMCrit(core.Options{}), core.NewDEPBurst()}

	// One derived Runner per seed: all seeds' truth matrices fan out
	// together before rows are assembled.
	runners := make([]*Runner, len(seeds))
	var warm []func()
	for i, seed := range seeds {
		rn := *r
		rn.Base.Seed = seed
		runners[i] = &rn
		warm = append(warm, func() { rn.Prewarm(r.Suite(), 1000, 4000) })
	}
	r.FanOut(warm...)

	for i, seed := range seeds {
		rn := runners[i]
		row := []string{fmt.Sprint(seed)}
		for _, d := range dirs {
			for _, m := range models {
				var errs []float64
				for _, spec := range r.Suite() {
					errs = append(errs, rn.PredictionError(spec, m, d.base, d.target))
				}
				row = append(row, report.PctAbs(report.MeanAbs(errs)))
			}
		}
		// Column order: per direction, M+CRIT then DEP+BURST.
		t.AddRow(row[0], row[1], row[2], row[3], row[4])
	}
	t.AddNote("DEP+BURST must stay far below M+CRIT for every seed")
	return t
}
