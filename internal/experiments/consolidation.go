package experiments

import (
	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/kernel"
	"depburst/internal/report"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// coRunTruth runs a consolidated pair at frequency f (memoised and
// singleflight-deduplicated like Truth).
func (r *Runner) coRunTruth(a, b dacapo.Spec, f units.Freq) *sim.Result {
	cfg := r.Base
	cfg.Freq = f
	a.Configure(&cfg) // tenant 0 uses the machine's default JVM
	res, _ := unwind(r.run(r.context(), "corun-truth", cfg, &dacapo.CoRun{Specs: []dacapo.Spec{a, b}}, nil, a, b))
	return res
}

// coRunManaged runs the consolidated pair under the chip-wide energy
// manager (memoised).
func (r *Runner) coRunManaged(a, b dacapo.Spec, threshold float64) *sim.Result {
	cfg := r.Base
	cfg.Freq = FMax
	a.Configure(&cfg)
	mcfg := energy.DefaultManagerConfig(threshold)
	res, _ := unwind(r.run(r.context(), "corun-chip", cfg, &dacapo.CoRun{Specs: []dacapo.Spec{a, b}}, chipGovernor(mcfg), a, b, mcfg))
	return res
}

// tenantEnd returns when the given tenant's application threads finished
// (max exit time over threads whose names carry the benchmark's prefix).
func tenantEnd(res *sim.Result, bench string) units.Time {
	var end units.Time
	for _, t := range res.Threads {
		if t.Class != kernel.ClassApp {
			continue
		}
		if len(t.Name) >= len(bench) && t.Name[:len(bench)] == bench {
			if t.End > end {
				end = t.End
			}
		}
	}
	return end
}

// Consolidation is the multi-tenant study: two benchmarks co-run on the
// four cores, each in its own managed-runtime instance (heap, GC,
// stop-the-world domain). The table reports each tenant's slowdown from
// interference at 4 GHz, and what the chip-wide energy manager does to the
// consolidated pair.
func (r *Runner) Consolidation(pairs [][2]string) *report.Table {
	if pairs == nil {
		pairs = [][2]string{
			{"xalan", "sunflow"},  // memory + compute
			{"lusearch", "pmd"},   // memory + memory
			{"sunflow", "avrora"}, // compute + compute
		}
	}
	specs := make([][2]dacapo.Spec, len(pairs))
	var warm []func()
	for i, p := range pairs {
		a, err := dacapo.ByName(p[0])
		if err != nil {
			panic(err)
		}
		b, err := dacapo.ByName(p[1])
		if err != nil {
			panic(err)
		}
		specs[i] = [2]dacapo.Spec{a, b}
		warm = append(warm,
			func() { r.Truth(a, FMax) },
			func() { r.Truth(b, FMax) },
			func() { r.coRunTruth(a, b, FMax) },
			func() { r.coRunManaged(a, b, 0.10) })
	}
	r.FanOut(warm...)

	t := &report.Table{
		Title: "Extension: consolidated tenants (two JVMs, four cores)",
		Header: []string{"pair", "A interference", "B interference",
			"managed slowdown", "managed savings"},
	}
	for i, p := range pairs {
		a, b := specs[i][0], specs[i][1]
		soloA := r.Truth(a, FMax)
		soloB := r.Truth(b, FMax)
		co := r.coRunTruth(a, b, FMax)

		interA := report.RelError(float64(tenantEnd(co, a.Name)), float64(soloA.Time))
		interB := report.RelError(float64(tenantEnd(co, b.Name)), float64(soloB.Time))

		// Managed co-run: the chip-wide DEP+BURST manager governs the
		// consolidated pair against the unmanaged co-run.
		managed := r.coRunManaged(a, b, 0.10)
		mSlow := report.RelError(float64(managed.Time), float64(co.Time))
		mSave := 1 - float64(managed.Energy)/float64(co.Energy)

		t.AddRow(p[0]+" + "+p[1],
			report.Pct(interA), report.Pct(interB),
			report.Pct(mSlow), report.Pct(mSave))
	}
	t.AddNote("interference: tenant completion vs running alone at 4 GHz; managed columns vs the unmanaged co-run")
	return t
}
