package core

import (
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// EpochBreakdown decomposes one epoch's DEP prediction at the target
// frequency into the components the model reasons about: the critical
// thread's frequency-scaling pipeline time, its non-scaling memory time
// (the engine's CRIT/LL/STALL estimate), its non-scaling store-burst time
// (the +BURST addend), and an idle remainder.
//
// The components satisfy Pipeline + Memory + Burst + Idle == Pred for
// every epoch, so the whole-stream sums decompose the total prediction
// exactly. In across-epoch mode Idle folds in the slack carried by
// Algorithm 1's delta counters and may be negative for a single epoch
// (the critical thread absorbed wait time banked earlier); for an idle
// epoch (no thread ran) the full duration lands in Idle.
type EpochBreakdown struct {
	Start  units.Time // epoch start (base-frequency timeline)
	Dur    units.Time // measured duration at the base frequency
	Pred   units.Time // predicted duration at the target frequency
	Instrs int64      // instructions committed by all threads in the epoch

	Pipeline units.Time // scaling component, rescaled to target
	Memory   units.Time // non-scaling engine component (CRIT/LL/STALL)
	Burst    units.Time // non-scaling store-queue-full component
	Idle     units.Time // remainder: idle epochs and carried slack
}

// SumBreakdownEpochs aggregates BreakdownEpochs' component attribution
// without materialising per-epoch entries: the summed pipeline, memory,
// burst and idle components and the total prediction over the epoch
// slice. It always uses per-epoch critical-thread prediction (o.PerEpochCTP
// is forced), which needs no across-epoch delta state — the function is
// allocation-free, so the sampling detector can fingerprint every quantum
// from it on the per-quantum hot path.
func SumBreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) (pipeline, memory, burst, idle, pred units.Time) {
	o.PerEpochCTP = true
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			d := ep.Duration()
			idle += d
			pred += d
			continue
		}
		var iPrime units.Time
		var crit *kernel.ThreadSlice
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			e := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			if crit == nil || e > iPrime {
				iPrime = e
				crit = sl
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}
		ns := nonScaling(&crit.Delta, crit.Delta.Active, o)
		m := ns
		if o.Burst {
			m = nonScaling(&crit.Delta, crit.Delta.Active, Options{Engine: o.Engine})
			burst += ns - m
		}
		memory += m
		p := scaleTime(crit.Delta.Active-ns, base, target)
		pipeline += p
		pred += iPrime
		idle += iPrime - (p + m + (ns - m))
	}
	return pipeline, memory, burst, idle, pred
}

// BreakdownEpochs runs the same aggregation as PredictEpochs but keeps
// per-epoch component attributions instead of only the total. The sum of
// the returned Pred fields equals PredictEpochs on the same inputs.
func BreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) []EpochBreakdown {
	out := make([]EpochBreakdown, 0, len(epochs))
	slack, est := slackTables(epochs)
	for i := range epochs {
		ep := &epochs[i]
		b := EpochBreakdown{Start: ep.Start, Dur: ep.Duration()}
		for _, sl := range ep.Slices {
			b.Instrs += sl.Delta.Instrs
		}
		if len(ep.Slices) == 0 {
			// Idle epoch: scheduler/timer time that does not scale.
			b.Pred = ep.Duration()
			b.Idle = b.Pred
			out = append(out, b)
			continue
		}

		// Critical-thread selection mirrors predictPerEpoch /
		// predictAcrossEpochs: the largest (slack-adjusted) estimate wins.
		var iPrime units.Time
		var crit *kernel.ThreadSlice
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			est[j] = predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			e := est[j]
			if !o.PerEpochCTP {
				e -= slack[sl.TID]
			}
			if crit == nil || e > iPrime {
				iPrime = e
				crit = sl
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}

		// Attribute the critical thread's two-component split, then let
		// Idle carry whatever slack adjustment moved Pred off the raw
		// estimate so the components always sum to Pred.
		ns := nonScaling(&crit.Delta, crit.Delta.Active, o)
		mem := ns
		if o.Burst {
			mem = nonScaling(&crit.Delta, crit.Delta.Active, Options{Engine: o.Engine})
			b.Burst = ns - mem
		}
		b.Memory = mem
		b.Pipeline = scaleTime(crit.Delta.Active-ns, base, target)
		b.Pred = iPrime
		b.Idle = iPrime - (b.Pipeline + b.Memory + b.Burst)
		out = append(out, b)

		if !o.PerEpochCTP {
			for j := range ep.Slices {
				slack[ep.Slices[j].TID] += iPrime - est[j]
			}
			resetSlack(slack, ep.StallTID)
		}
	}
	return out
}
