package energy

import (
	"depburst/internal/core"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// PerCoreManager is the per-core DVFS extension the paper leaves as future
// work (§VII): each core gets its own frequency every quantum, chosen so
// that the core's own predicted slowdown versus the maximum frequency
// stays within the bound.
//
// The per-core decision uses each core's aggregate counters rather than
// the epoch stream: epochs describe inter-thread dependencies, which a
// per-core decision cannot resolve (slowing one core shifts work onto the
// critical path of another). This is precisely the open problem the paper
// defers; the implementation makes the trade-off measurable (see the
// PerCoreDVFS experiment): idle and memory-bound cores clock down
// independently, but the slowdown guarantee is weaker than chip-wide
// DEP+BURST's.
type PerCoreManager struct {
	cfg  ManagerConfig
	hold int

	// Decisions records the chosen frequency vector per quantum.
	Decisions [][]units.Freq
}

// NewPerCoreManager returns a per-core manager with the given config.
func NewPerCoreManager(cfg ManagerConfig) *PerCoreManager {
	return &PerCoreManager{cfg: cfg.checked()}
}

// Governor returns the per-core DVFS policy.
func (mg *PerCoreManager) Governor() sim.CoreGovernor {
	return func(m *sim.Machine, s sim.QuantumSample) []units.Freq {
		if mg.hold > 1 {
			mg.hold--
			return nil
		}
		mg.hold = mg.cfg.HoldOff

		dur := s.End - s.Start
		out := make([]units.Freq, len(s.PerCore))
		for i, cs := range s.PerCore {
			out[i] = mg.decide(cs, dur)
		}
		mg.Decisions = append(mg.Decisions, out)
		return out
	}
}

// decide picks one core's frequency from its quantum delta.
func (mg *PerCoreManager) decide(cs sim.CoreSample, dur units.Time) units.Freq {
	// A (nearly) idle core drops to the floor: it burns only leakage and
	// wakes at the next quantum boundary if work arrives.
	if cs.Delta.Active < dur/64 {
		return mg.cfg.Min
	}
	predict := func(f units.Freq) units.Time {
		return core.PredictAggregate(cs.Delta, cs.Freq, f, mg.cfg.Opts)
	}
	predMax := predict(mg.cfg.Max)
	if predMax <= 0 {
		return cs.Freq
	}
	f, _ := mg.cfg.lowest(predict, predMax, mg.cfg.Threshold)
	return f
}
