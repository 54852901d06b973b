// Package energy implements the paper's case study (§VI): an energy
// manager that uses a DVFS performance predictor to pick, every scheduling
// quantum, the lowest frequency whose predicted slowdown relative to the
// maximum frequency stays within a user-specified bound — saving energy
// while guaranteeing performance.
package energy

import (
	"depburst/internal/core"
	"depburst/internal/metrics"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// ManagerConfig parameterises the energy manager.
type ManagerConfig struct {
	// Threshold is the tolerable slowdown versus always running at the
	// maximum frequency (e.g. 0.05 for 5%).
	Threshold float64
	// HoldOff is the number of quanta to wait between frequency changes
	// (paper: 1, i.e. re-decide every quantum).
	HoldOff int
	// Step is the DVFS frequency granularity (paper: 125 MHz).
	Step units.Freq
	// Min and Max bound the DVFS range.
	Min, Max units.Freq
	// Predictor options; the paper uses DEP+BURST.
	Opts core.Options
}

// DefaultManagerConfig returns the paper's setup: DEP+BURST, 125 MHz steps,
// hold-off 1, over the 1-4 GHz range.
func DefaultManagerConfig(threshold float64) ManagerConfig {
	return ManagerConfig{
		Threshold: threshold,
		HoldOff:   1,
		Step:      125,
		Min:       1000,
		Max:       4000,
		Opts:      core.Options{Burst: true},
	}
}

// Manager holds the controller state across quanta.
type Manager struct {
	cfg     ManagerConfig
	hold    int
	lastReq units.Freq

	// Decisions records each quantum's chosen frequency for analysis.
	Decisions []Decision
}

// Decision is one governor decision.
type Decision struct {
	At          units.Time
	Freq        units.Freq
	PredMax     units.Time // predicted quantum duration at Max
	PredChosen  units.Time // predicted duration at the chosen frequency
	EpochsInLag int
}

// checked validates cfg for a manager: a negative slowdown threshold
// panics, and a hold-off below 1 is raised to 1 (re-decide every quantum).
func (cfg ManagerConfig) checked() ManagerConfig {
	if cfg.Threshold < 0 {
		panic("energy: negative slowdown threshold")
	}
	if cfg.HoldOff < 1 {
		cfg.HoldOff = 1
	}
	return cfg
}

// lowest walks the candidate states bottom-up and returns the first whose
// predicted duration stays within threshold of predMax, the prediction at
// Max, with that prediction; if none does, Max and predMax. Power
// decreases monotonically with frequency, so the lowest admissible
// frequency minimises energy.
func (cfg ManagerConfig) lowest(predict func(units.Freq) units.Time, predMax units.Time, threshold float64) (units.Freq, units.Time) {
	limit := units.Time(float64(predMax) * (1 + threshold))
	for f := cfg.Min; f < cfg.Max; f += cfg.Step {
		if p := predict(f); p <= limit {
			return f, p
		}
	}
	return cfg.Max, predMax
}

// NewManager returns a manager with the given configuration.
func NewManager(cfg ManagerConfig) *Manager { return &Manager{cfg: cfg.checked()} }

// Governor returns the sim.Governor implementing the paper's policy: from
// the quantum's epoch stream, predict the interval's duration at the
// maximum frequency and at every candidate state, then pick the lowest
// frequency whose slowdown versus the maximum stays within the threshold.
func (mg *Manager) Governor() sim.Governor {
	return func(m *sim.Machine, s sim.QuantumSample) units.Freq {
		if mg.hold > 1 {
			mg.hold--
			return m.Freq()
		}
		mg.hold = mg.cfg.HoldOff

		// Predict the interval's duration at frequency f; see
		// predictInterval for the epoch/aggregate split.
		predict := func(f units.Freq) units.Time {
			return predictInterval(m, s, f, mg.cfg.Opts)
		}

		// Step 1 (paper §VI-A): estimate this interval's duration at
		// the highest frequency.
		predMax := predict(mg.cfg.Max)
		if predMax <= 0 {
			return m.Freq()
		}

		// Step 2: take the lowest candidate state that satisfies the
		// constraint.
		chosen, pred := mg.cfg.lowest(predict, predMax, mg.cfg.Threshold)
		// Hysteresis: a one-step move must be requested in two
		// consecutive quanta before it is applied, so prediction noise
		// at the 125 MHz granularity does not pay a 2 µs transition
		// every quantum.
		apply := chosen
		cur := m.Freq()
		oneStep := chosen > cur-2*mg.cfg.Step && chosen < cur+2*mg.cfg.Step && chosen != cur
		if oneStep && chosen != mg.lastReq {
			apply = cur
		}
		mg.lastReq = chosen

		mg.Decisions = append(mg.Decisions, Decision{
			At:          s.End,
			Freq:        apply,
			PredMax:     predMax,
			PredChosen:  pred,
			EpochsInLag: s.EpochHi - s.EpochLo,
		})
		// Observability: mirror the decision into the run's registry so
		// the exported metrics document carries the manager's
		// per-quantum prediction telemetry.
		m.Metrics().RecordQuantumPred(metrics.QuantumPred{
			At:         s.End,
			Freq:       apply,
			PredMax:    predMax,
			PredChosen: pred,
			Epochs:     s.EpochHi - s.EpochLo,
		})
		return apply
	}
}
