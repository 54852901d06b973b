package core

import (
	"fmt"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// DEP is the paper's predictor (§III): execution is decomposed into
// synchronization epochs at every futex sleep and wake; each active
// thread's duration within an epoch is predicted with the per-thread
// engine; and the epoch's duration at the target frequency is that of the
// critical thread — tracked either per epoch or across epochs with delta
// counters (Algorithm 1). With Options.Burst it is the full DEP+BURST
// model.
type DEP struct {
	Opts Options
}

// NewDEP returns a DEP model with the given options.
func NewDEP(o Options) *DEP { return &DEP{Opts: o} }

// NewDEPBurst returns the paper's headline DEP+BURST model.
func NewDEPBurst() *DEP { return &DEP{Opts: Options{Burst: true}} }

// Name implements Model.
func (d *DEP) Name() string {
	n := "DEP" + d.Opts.suffix()
	if d.Opts.PerEpochCTP {
		n += "(per-epoch)"
	}
	return n
}

// Predict implements Model.
func (d *DEP) Predict(obs *Observation, target units.Freq) units.Time {
	return PredictEpochs(obs.Epochs, obs.Base, target, d.Opts)
}

// PredictEpochs runs DEP's epoch aggregation over an epoch stream,
// predicting the stream's total duration at the target frequency. It is
// exported separately because the energy manager applies it to the epochs
// of a single scheduling quantum.
func PredictEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	if o.PerEpochCTP {
		return predictPerEpoch(epochs, base, target, o)
	}
	return predictAcrossEpochs(epochs, base, target, o)
}

// PredictAggregate predicts an interval's duration at the target frequency
// from aggregate counters alone (no epoch structure), the fallback for
// intervals without synchronization activity: all threads ran
// independently, so the interval scales like its per-core average.
func PredictAggregate(c cpu.Counters, base, target units.Freq, o Options) units.Time {
	return predictThread(c.Active, &c, o, base, target)
}

// predictPerEpoch estimates each epoch independently as the duration of its
// slowest predicted thread (Figure 2(c)).
func predictPerEpoch(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	var total units.Time
	for i := range epochs {
		ep := &epochs[i]
		var worst units.Time
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			p := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			if p > worst {
				worst = p
			}
		}
		if len(ep.Slices) == 0 {
			// Idle epoch (no thread ran): its duration is
			// scheduler/timer time that does not scale.
			worst = ep.Duration()
		}
		total += worst
	}
	return total
}

// predictAcrossEpochs implements Algorithm 1: per-thread delta counters
// carry slack across epochs, so a thread that finished early in one epoch
// (and waited) correctly absorbs that wait when it becomes critical later.
// The thread whose sleep closed the epoch has no carried slack: its delta
// resets.
func predictAcrossEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	slack, est := slackTables(epochs)
	var total units.Time
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			total += ep.Duration()
			continue
		}
		// Lines 1-5: per-thread estimate minus carried slack; the epoch
		// lasts as long as the largest, and never less than zero.
		var iPrime units.Time
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			est[j] = predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			iPrime = max(iPrime, est[j]-slack[sl.TID])
		}
		total += iPrime
		// Lines 6-8: update slack for every active thread.
		for j := range ep.Slices {
			slack[ep.Slices[j].TID] += iPrime - est[j]
		}
		// Line 9: the stalled thread's slack resets — it slept, so its
		// next epoch starts fresh.
		resetSlack(slack, ep.StallTID)
	}
	return total
}

// slackTables returns Algorithm 1's per-thread slack, indexed by thread ID
// and zeroed, and scratch for one epoch's per-slice estimates, both sized
// by one pass over the stream. Thread IDs are dense from 0 (the kernel
// numbers threads in spawn order); a negative one in a slice is a bug in
// the stream's producer and panics.
func slackTables(epochs []kernel.Epoch) (slack, est []units.Time) {
	threads, width := 0, 0
	for i := range epochs {
		ep := &epochs[i]
		width = max(width, len(ep.Slices))
		for j := range ep.Slices {
			tid := ep.Slices[j].TID
			if tid < 0 {
				panic(fmt.Sprintf("core: epoch %d has a slice of thread %d", i, tid))
			}
			threads = max(threads, int(tid)+1)
		}
	}
	buf := make([]units.Time, threads+width)
	return buf[:threads:threads], buf[threads:]
}

// resetSlack clears the slack of the thread whose sleep closed an epoch.
// NoThread, and a thread no slice names, carry none.
func resetSlack(slack []units.Time, stall kernel.ThreadID) {
	if stall >= 0 && int(stall) < len(slack) {
		slack[stall] = 0
	}
}
