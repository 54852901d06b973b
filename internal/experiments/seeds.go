package experiments

import (
	"fmt"

	"depburst/internal/core"
	"depburst/internal/report"
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
	models := []core.Model{core.NewMCrit(core.Options{}), core.NewDEPBurst()}

	// One derived Runner per seed: all seeds' runs fan out together
	// before rows are assembled.
	dirs := make([][]direction, len(seeds))
	var warm []func()
	for i, seed := range seeds {
		rn := *r
		rn.Base.Seed = seed
		warm = append(warm, func() { dirs[i] = directions(rn.observePair(1000, 4000)) })
	}
	r.FanOut(warm...)

	for i, seed := range seeds {
		row := []string{fmt.Sprint(seed)}
		for _, d := range dirs[i] {
			for _, m := range models {
				var errs []float64
				for k := range r.Suite() {
					errs = append(errs, predictionError(m, d.from[k], d.target, d.to[k].Total))
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
