package experiments

import (
	"testing"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/report"
	"depburst/internal/units"
)

// sharedRunner memoises truth runs across the assertion tests in this
// package so the paper-result suite stays fast.
var sharedRunner = NewRunner()

// avgAbs computes a model's average absolute error over the whole suite.
func avgAbs(t *testing.T, m core.Model, base, target units.Freq) float64 {
	t.Helper()
	var errs []float64
	for _, spec := range dacapo.Suite() {
		errs = append(errs, sharedRunner.PredictionError(spec, m, base, target))
	}
	return report.MeanAbs(errs)
}

// TestPaperModelOrdering asserts the paper's central accuracy result
// (Figures 1 and 3): M+CRIT > COOP > DEP in error, BURST improves each, and
// DEP+BURST lands in the paper's accuracy band in both directions.
func TestPaperModelOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	type dir struct {
		name         string
		base, target units.Freq
	}
	for _, d := range []dir{{"1->4GHz", 1000, 4000}, {"4->1GHz", 4000, 1000}} {
		mcrit := avgAbs(t, core.NewMCrit(core.Options{}), d.base, d.target)
		mcritB := avgAbs(t, core.NewMCrit(core.Options{Burst: true}), d.base, d.target)
		coop := avgAbs(t, core.NewCOOP(core.Options{}), d.base, d.target)
		coopB := avgAbs(t, core.NewCOOP(core.Options{Burst: true}), d.base, d.target)
		dep := avgAbs(t, core.NewDEP(core.Options{}), d.base, d.target)
		depB := avgAbs(t, core.NewDEPBurst(), d.base, d.target)

		t.Logf("%s: M+CRIT %.1f%% (+B %.1f%%)  COOP %.1f%% (+B %.1f%%)  DEP %.1f%%  DEP+BURST %.1f%%",
			d.name, mcrit*100, mcritB*100, coop*100, coopB*100, dep*100, depB*100)

		if !(mcrit > coop && coop > dep) {
			t.Errorf("%s: model ordering broken: M+CRIT %.3f, COOP %.3f, DEP %.3f",
				d.name, mcrit, coop, dep)
		}
		if depB >= dep {
			t.Errorf("%s: BURST did not improve DEP: %.3f vs %.3f", d.name, depB, dep)
		}
		if mcritB > mcrit+1e-9 {
			t.Errorf("%s: BURST hurt M+CRIT: %.3f vs %.3f", d.name, mcritB, mcrit)
		}
		if coopB >= coop {
			t.Errorf("%s: BURST did not improve COOP: %.3f vs %.3f", d.name, coopB, coop)
		}
		if depB > dep && dep > mcrit {
			t.Errorf("%s: DEP+BURST not the most accurate model", d.name)
		}
	}

	// Accuracy bands (paper: 6% and 8%; allow reproduction slack).
	if e := avgAbs(t, core.NewDEPBurst(), 1000, 4000); e > 0.12 {
		t.Errorf("DEP+BURST 1->4GHz avg abs error %.1f%%, want < 12%%", e*100)
	}
	if e := avgAbs(t, core.NewDEPBurst(), 4000, 1000); e > 0.20 {
		t.Errorf("DEP+BURST 4->1GHz avg abs error %.1f%%, want < 20%%", e*100)
	}
	// M+CRIT must be far worse — the paper's motivation.
	if e := avgAbs(t, core.NewMCrit(core.Options{}), 1000, 4000); e < 0.10 {
		t.Errorf("M+CRIT 1->4GHz error %.1f%% implausibly low", e*100)
	}
}

// TestPaperBurstHelpsMemoryBenchmarks asserts that BURST's benefit
// concentrates in the memory-intensive (allocation-heavy) benchmarks.
func TestPaperBurstHelpsMemoryBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	dep := core.NewDEP(core.Options{})
	depB := core.NewDEPBurst()
	var gainM, gainC []float64
	for _, spec := range dacapo.Suite() {
		e := sharedRunner.PredictionError(spec, dep, 1000, 4000)
		eb := sharedRunner.PredictionError(spec, depB, 1000, 4000)
		gain := abs(e) - abs(eb)
		if spec.Memory {
			gainM = append(gainM, gain)
		} else {
			gainC = append(gainC, gain)
		}
	}
	if report.Mean(gainM) <= report.Mean(gainC) {
		t.Errorf("BURST gain on memory benchmarks (%.3f) not larger than on compute (%.3f)",
			report.Mean(gainM), report.Mean(gainC))
	}
	if report.Mean(gainM) <= 0 {
		t.Errorf("BURST gain on memory benchmarks non-positive: %.3f", report.Mean(gainM))
	}
}

// TestPaperAcrossEpochCTP asserts Figure 4's high-to-low result, where
// across-epoch CTP matters most.
func TestPaperAcrossEpochCTP(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	across := avgAbs(t, core.NewDEP(core.Options{Burst: true}), 4000, 1000)
	per := avgAbs(t, core.NewDEP(core.Options{Burst: true, PerEpochCTP: true}), 4000, 1000)
	t.Logf("4->1GHz: across-epoch %.1f%%, per-epoch %.1f%%", across*100, per*100)
	if across >= per {
		t.Errorf("across-epoch CTP (%.3f) did not beat per-epoch (%.3f) at 4->1GHz", across, per)
	}
}

// TestPaperTable1Calibration asserts the benchmark suite matches Table I:
// classification by GC fraction and the scaled execution times.
func TestPaperTable1Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	// Paper values in ms (we target value/100, within 35%).
	paperMS := map[string]float64{
		"xalan": 1400, "pmd": 1345, "pmd.scale": 500, "lusearch": 2600,
		"lusearch.fix": 1249, "avrora": 1782, "sunflow": 4900,
	}
	for _, spec := range dacapo.Suite() {
		res := sharedRunner.Truth(spec, 1000)
		gcFrac := float64(res.GC.GCTime) / float64(res.Time)
		if spec.Memory && gcFrac < 0.08 {
			t.Errorf("%s: memory-intensive but GC fraction %.1f%%", spec.Name, gcFrac*100)
		}
		if !spec.Memory && gcFrac > 0.06 {
			t.Errorf("%s: compute-intensive but GC fraction %.1f%%", spec.Name, gcFrac*100)
		}
		want := paperMS[spec.Name] / 100
		got := res.Time.Milliseconds()
		if got < want*0.65 || got > want*1.35 {
			t.Errorf("%s: %.2fms at 1 GHz, want ~%.2fms (paper/100)", spec.Name, got, want)
		}
	}
}

// TestPaperEnergyManager asserts Figure 6's headline: the manager saves
// substantial energy on memory-intensive benchmarks while keeping the
// slowdown near the bound, and saves little on compute-intensive ones.
func TestPaperEnergyManager(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	var savesM, savesC []float64
	for _, spec := range dacapo.Suite() {
		ref := sharedRunner.Truth(spec, FMax)
		res, _ := sharedRunner.ManagedRun(spec, 0.10)
		slow := report.RelError(float64(res.Time), float64(ref.Time))
		save := 1 - float64(res.Energy)/float64(ref.Energy)
		t.Logf("%-12s slowdown %+.1f%% savings %+.1f%%", spec.Name, slow*100, save*100)
		if slow > 0.18 {
			t.Errorf("%s: slowdown %.1f%% blows the 10%% bound", spec.Name, slow*100)
		}
		if spec.Memory {
			savesM = append(savesM, save)
		} else {
			savesC = append(savesC, save)
		}
	}
	if m := report.Mean(savesM); m < 0.12 {
		t.Errorf("memory-intensive average savings %.1f%%, want >= 12%% (paper: 19%%)", m*100)
	}
	if c := report.Mean(savesC); c > 0.10 {
		t.Errorf("compute-intensive average savings %.1f%% implausibly high", c*100)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestTruthTimeMonotoneInFrequency is a metamorphic check on the whole
// simulator: raising the clock never lengthens a stock benchmark's run.
// The surrogate's law is monotone by construction, so tier 0 is only
// right where this holds.
func TestTruthTimeMonotoneInFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	sharedRunner.Prewarm(dacapo.Suite(), EvalFreqs...)
	for _, spec := range dacapo.Suite() {
		for i := 1; i < len(EvalFreqs); i++ {
			lo := sharedRunner.TruthSummary(spec, EvalFreqs[i-1]).Time
			hi := sharedRunner.TruthSummary(spec, EvalFreqs[i]).Time
			if hi > lo {
				t.Errorf("%s: %v at %v but %v at %v", spec.Name, lo, EvalFreqs[i-1], hi, EvalFreqs[i])
			}
		}
	}
}
