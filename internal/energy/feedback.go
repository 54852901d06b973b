package energy

import (
	"depburst/internal/sim"
	"depburst/internal/units"
)

// FeedbackManager extends the paper's energy manager with closed-loop
// budget tracking. The paper's manager enforces the slowdown bound
// per-interval using predictions only, so prediction errors at phase
// boundaries accumulate into overshoot. The feedback variant additionally
// tracks the realised slowdown so far — elapsed time against the predicted
// always-at-maximum time — and tightens or relaxes the per-interval
// threshold proportionally, spending exactly the user's budget.
//
// This is an extension beyond the paper (its §VI manager is open-loop);
// the FeedbackAblation experiment quantifies what the feedback buys.
type FeedbackManager struct {
	cfg  ManagerConfig
	hold int

	predAtMax units.Time // predicted total so far at the max frequency
	elapsed   units.Time // measured total so far

	Decisions []Decision
}

// NewFeedbackManager returns a feedback manager with the given config.
func NewFeedbackManager(cfg ManagerConfig) *FeedbackManager {
	return &FeedbackManager{cfg: cfg.checked()}
}

// RealizedSlowdown reports the cumulative slowdown estimate so far.
func (mg *FeedbackManager) RealizedSlowdown() float64 {
	if mg.predAtMax <= 0 {
		return 0
	}
	return float64(mg.elapsed)/float64(mg.predAtMax) - 1
}

// Governor returns the closed-loop DVFS policy.
func (mg *FeedbackManager) Governor() sim.Governor {
	return func(m *sim.Machine, s sim.QuantumSample) units.Freq {
		predict := func(f units.Freq) units.Time {
			return predictInterval(m, s, f, mg.cfg.Opts)
		}
		predMax := predict(mg.cfg.Max)
		if predMax <= 0 {
			return m.Freq()
		}
		// Account the interval just finished. The ledger uses the
		// per-interval wall ratio rather than the epoch window: epochs
		// can span several quanta, and accounting them at each quantum
		// they end in would double-count time.
		mg.predAtMax += wallRatioPredict(s, mg.cfg.Max, mg.cfg.Opts)
		mg.elapsed += s.End - s.Start

		if mg.hold > 1 {
			mg.hold--
			return m.Freq()
		}
		mg.hold = mg.cfg.HoldOff

		// Closed loop: spend the remaining budget. If the run so far is
		// ahead of the bound, the next interval may slow more; if it
		// overshot, the next interval must claw time back.
		thr := mg.cfg.Threshold + (mg.cfg.Threshold - mg.RealizedSlowdown())
		if thr < 0 {
			thr = 0
		}
		if max := 3 * mg.cfg.Threshold; thr > max {
			thr = max
		}
		chosen, pred := mg.cfg.lowest(predict, predMax, thr)
		mg.Decisions = append(mg.Decisions, Decision{
			At: s.End, Freq: chosen, PredMax: predMax, PredChosen: pred,
			EpochsInLag: s.EpochHi - s.EpochLo,
		})
		return chosen
	}
}
