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
	w := newWalker(epochs, base, target, o)
	for i := range epochs {
		p, crit := w.step(&epochs[i])
		pi, m, b, id := w.split(crit, p)
		pipeline += pi
		memory += m
		burst += b
		idle += id
		pred += p
	}
	return pipeline, memory, burst, idle, pred
}

// BreakdownEpochs runs the same aggregation as PredictEpochs but keeps
// per-epoch component attributions instead of only the total. The sum of
// the returned Pred fields equals PredictEpochs on the same inputs.
func BreakdownEpochs(epochs []kernel.Epoch, base, target units.Freq, o Options) []EpochBreakdown {
	out := make([]EpochBreakdown, len(epochs))
	w := newWalker(epochs, base, target, o)
	for i := range epochs {
		ep, b := &epochs[i], &out[i]
		b.Start, b.Dur = ep.Start, ep.Duration()
		for j := range ep.Slices {
			b.Instrs += ep.Slices[j].Delta.Instrs
		}
		var crit *kernel.ThreadSlice
		b.Pred, crit = w.step(ep)
		b.Pipeline, b.Memory, b.Burst, b.Idle = w.split(crit, b.Pred)
	}
	return out
}

// split divides an epoch's prediction among its critical thread's
// pipeline time (rescaled to target), memory time and, under Burst,
// store-burst time, and lets Idle carry whatever slack moved pred off the
// thread's own estimate, so the four always sum to pred. An idle epoch
// (no critical slice) is all Idle.
func (w *walker) split(crit *kernel.ThreadSlice, pred units.Time) (pipeline, memory, burst, idle units.Time) {
	if crit == nil {
		return 0, 0, 0, pred
	}
	c := &crit.Delta
	ns := nonScaling(c, c.Active, w.o)
	memory = ns
	if w.o.Burst {
		memory = nonScaling(c, c.Active, Options{Engine: w.o.Engine})
		burst = ns - memory
	}
	pipeline = scaleTime(c.Active-ns, w.base, w.target)
	return pipeline, memory, burst, pred - (pipeline + memory + burst)
}
