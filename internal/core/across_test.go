package core

import (
	"math/rand/v2"
	"testing"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// predictAcrossEpochsMap is Algorithm 1 as first written, with the slack
// in a map keyed by thread ID and every slice's estimate computed twice.
// It is the oracle across-epoch mode must match bit for bit.
func predictAcrossEpochsMap(epochs []kernel.Epoch, base, target units.Freq, o Options) units.Time {
	delta := make(map[kernel.ThreadID]units.Time)
	var total units.Time
	for i := range epochs {
		ep := &epochs[i]
		if len(ep.Slices) == 0 {
			total += ep.Duration()
			continue
		}
		var iPrime units.Time
		first := true
		for _, sl := range ep.Slices {
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			e := a - delta[sl.TID]
			if first || e > iPrime {
				iPrime = e
				first = false
			}
		}
		if iPrime < 0 {
			iPrime = 0
		}
		total += iPrime
		for _, sl := range ep.Slices {
			a := predictThread(sl.Delta.Active, &sl.Delta, o, base, target)
			delta[sl.TID] += iPrime - a
		}
		if ep.StallTID != kernel.NoThread {
			delta[ep.StallTID] = 0
		}
	}
	return total
}

// predictPerEpoch is per-epoch critical-thread prediction as first
// written: each epoch independently lasts as long as its slowest predicted
// thread (Figure 2(c)). It is the oracle per-epoch mode must match bit for
// bit.
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

// sumBreakdownPerEpoch is SumBreakdownEpochs as first written, with its
// own critical-thread selection and pipeline/memory/burst split. It is the
// oracle both breakdowns' per-epoch split must match bit for bit.
func sumBreakdownPerEpoch(epochs []kernel.Epoch, base, target units.Freq, o Options) (pipeline, memory, burst, idle, pred units.Time) {
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

// sparseTIDs are the thread IDs random streams draw from: gaps, a large
// ID, and 4000, which only ever appears as a stall.
var sparseTIDs = []kernel.ThreadID{0, 1, 2, 5, 9, 31, 64, 255, 1000}

// randomStream builds an epoch stream from a seed: idle epochs, slices of
// sparse (and within an epoch repeated) thread IDs with random counters,
// and stalls that are NoThread, a slice's thread, the previous epoch's
// stall again, or a thread no slice names.
func randomStream(rng *rand.Rand, n int) []kernel.Epoch {
	epochs := make([]kernel.Epoch, n)
	var at units.Time
	stall := kernel.NoThread
	for i := range epochs {
		dur := units.Time(1 + rng.IntN(5000))
		var slices []kernel.ThreadSlice
		if rng.IntN(8) != 0 {
			slices = make([]kernel.ThreadSlice, 1+rng.IntN(6))
			for j := range slices {
				active := units.Time(rng.IntN(int(dur) + 1))
				slices[j] = kernel.ThreadSlice{
					TID: sparseTIDs[rng.IntN(len(sparseTIDs))],
					Delta: cpu.Counters{
						Active:  active,
						CritNS:  units.Time(rng.IntN(int(active) + 1)),
						LeadNS:  units.Time(rng.IntN(int(active) + 1)),
						StallNS: units.Time(rng.IntN(int(active) + 1)),
						SQFull:  units.Time(rng.IntN(int(active)/2 + 1)),
					},
				}
			}
		}
		switch rng.IntN(4) {
		case 0:
			stall = kernel.NoThread
		case 1:
			if len(slices) > 0 {
				stall = slices[rng.IntN(len(slices))].TID
			}
		case 2: // repeat the previous stall
		case 3:
			stall = 4000
		}
		epochs[i] = kernel.Epoch{Start: at, End: at + dur, StallTID: stall, Slices: slices}
		at += dur
	}
	return epochs
}

// checkAgainstMap compares PredictEpochs, and the sum of BreakdownEpochs,
// with the map oracle in across-epoch mode and with predictPerEpoch in
// per-epoch mode, and SumBreakdownEpochs and the summed per-epoch
// breakdown with sumBreakdownPerEpoch, for every engine, with and without
// BURST, in both directions.
func checkAgainstMap(t *testing.T, epochs []kernel.Epoch) {
	t.Helper()
	for _, eng := range []Engine{CRIT, LeadingLoads, StallTime} {
		for _, burst := range []bool{false, true} {
			for _, per := range []bool{false, true} {
				o := Options{Engine: eng, Burst: burst, PerEpochCTP: per}
				for _, fr := range [][2]units.Freq{{1000, 4000}, {1000, 1000}, {4000, 1000}, {2000, 3000}} {
					want := predictAcrossEpochsMap(epochs, fr[0], fr[1], o)
					if per {
						want = predictPerEpoch(epochs, fr[0], fr[1], o)
					}
					if got := PredictEpochs(epochs, fr[0], fr[1], o); got != want {
						t.Fatalf("%+v %v->%v: PredictEpochs %v, oracle %v", o, fr[0], fr[1], got, want)
					}
					var sum EpochBreakdown
					for _, b := range BreakdownEpochs(epochs, fr[0], fr[1], o) {
						sum.Pred += b.Pred
						sum.Pipeline += b.Pipeline
						sum.Memory += b.Memory
						sum.Burst += b.Burst
						sum.Idle += b.Idle
					}
					if sum.Pred != want {
						t.Fatalf("%+v %v->%v: BreakdownEpochs sums to %v, oracle %v", o, fr[0], fr[1], sum.Pred, want)
					}
					if !per {
						continue
					}
					// SumBreakdownEpochs forces per-epoch mode.
					var ref, got EpochBreakdown
					ref.Pipeline, ref.Memory, ref.Burst, ref.Idle, ref.Pred = sumBreakdownPerEpoch(epochs, fr[0], fr[1], o)
					got.Pipeline, got.Memory, got.Burst, got.Idle, got.Pred = SumBreakdownEpochs(epochs, fr[0], fr[1], Options{Engine: eng, Burst: burst})
					if got != ref {
						t.Fatalf("%+v %v->%v: SumBreakdownEpochs %+v, oracle %+v", o, fr[0], fr[1], got, ref)
					}
					if sum != ref {
						t.Fatalf("%+v %v->%v: BreakdownEpochs sums to %+v, oracle %+v", o, fr[0], fr[1], sum, ref)
					}
				}
			}
		}
	}
}

// TestAcrossEpochsMatchesMap is the property test: over random streams
// with sparse thread IDs, NoThread and repeated stalls, the slice-indexed
// slack gives exactly the map oracle's prediction, per-epoch mode gives
// exactly predictPerEpoch's, and both breakdowns split it exactly as
// sumBreakdownPerEpoch does.
func TestAcrossEpochsMatchesMap(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xdeb))
		checkAgainstMap(t, randomStream(rng, rng.IntN(40)))
	}
}

func FuzzAcrossEpochsMatchesMap(f *testing.F) {
	f.Add(uint64(1), uint8(12))
	f.Add(uint64(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		checkAgainstMap(t, randomStream(rng, int(n%64)))
	})
}

// TestNegativeSliceThreadPanics pins the stream contract: slice thread
// IDs are never negative.
func TestNegativeSliceThreadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a slice of thread -2 was accepted")
		}
	}()
	PredictEpochs([]kernel.Epoch{{End: 10, Slices: []kernel.ThreadSlice{{TID: -2}}}}, 1000, 2000, Options{})
}
