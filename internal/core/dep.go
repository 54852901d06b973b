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
	w := newWalker(epochs, base, target, o)
	var total units.Time
	for i := range epochs {
		pred, _ := w.step(&epochs[i])
		total += pred
	}
	return total
}

// PredictAggregate predicts an interval's duration at the target frequency
// from aggregate counters alone (no epoch structure), the fallback for
// intervals without synchronization activity: all threads ran
// independently, so the interval scales like its per-core average.
func PredictAggregate(c cpu.Counters, base, target units.Freq, o Options) units.Time {
	return predictThread(c.Active, &c, o, base, target)
}

// walker steps DEP's critical-thread aggregation through an epoch stream
// in order, so PredictEpochs, BreakdownEpochs and SumBreakdownEpochs share
// one Algorithm 1. An epoch lasts as long as its critical thread: per
// epoch, the slowest predicted thread (Figure 2(c)); across epochs, the
// largest estimate net of the slack carried by per-thread delta counters,
// so a thread that finished early in one epoch (and waited) correctly
// absorbs that wait when it becomes critical later.
type walker struct {
	o            Options
	base, target units.Freq
	// slack and est are Algorithm 1's tables (see slackTables), built
	// only in across-epoch mode.
	slack, est []units.Time
}

// newWalker returns a walker at the start of epochs. Per-epoch mode
// allocates nothing.
func newWalker(epochs []kernel.Epoch, base, target units.Freq, o Options) walker {
	w := walker{o: o, base: base, target: target}
	if !o.PerEpochCTP {
		w.slack, w.est = slackTables(epochs)
	}
	return w
}

// step predicts the next epoch and returns its duration at the target
// frequency with the critical thread's slice. An idle epoch (no thread
// ran) is scheduler/timer time that does not scale: it keeps its measured
// duration and has no critical slice.
func (w *walker) step(ep *kernel.Epoch) (units.Time, *kernel.ThreadSlice) {
	if len(ep.Slices) == 0 {
		return ep.Duration(), nil
	}
	across := !w.o.PerEpochCTP
	// Lines 1-5: per-thread estimate minus carried slack; the epoch
	// lasts as long as the largest, and never less than zero.
	var pred units.Time
	var crit *kernel.ThreadSlice
	for j := range ep.Slices {
		sl := &ep.Slices[j]
		e := predictThread(sl.Delta.Active, &sl.Delta, w.o, w.base, w.target)
		if across {
			w.est[j] = e
			e -= w.slack[sl.TID]
		}
		if crit == nil || e > pred {
			pred, crit = e, sl
		}
	}
	pred = max(pred, 0)
	if across {
		// Lines 6-8: update slack for every active thread.
		for j := range ep.Slices {
			w.slack[ep.Slices[j].TID] += pred - w.est[j]
		}
		// Line 9: the stalled thread's slack resets — it slept, so its
		// next epoch starts fresh. NoThread, and a thread no slice
		// names, carry none.
		if s := ep.StallTID; s >= 0 && int(s) < len(w.slack) {
			w.slack[s] = 0
		}
	}
	return pred, crit
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
