package core

import (
	"testing"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// breakdownEpochsFixture builds a deterministic synthetic epoch stream with
// mixed shapes: multi-thread epochs, an idle epoch, carried slack and a
// store burst.
func breakdownEpochsFixture() []kernel.Epoch {
	mk := func(active, crit, sq units.Time, instrs int64) cpu.Counters {
		return cpu.Counters{Instrs: instrs, Active: active, CritNS: crit, SQFull: sq}
	}
	return []kernel.Epoch{
		{Start: 0, End: 1000, StallTID: 0, EndKind: kernel.BoundarySleep,
			Slices: []kernel.ThreadSlice{
				{TID: 0, Delta: mk(1000, 300, 100, 2000)},
				{TID: 1, Delta: mk(600, 50, 0, 900)},
			}},
		{Start: 1000, End: 1400, StallTID: kernel.NoThread, EndKind: kernel.BoundaryWake,
			Slices: []kernel.ThreadSlice{
				{TID: 1, Delta: mk(400, 350, 0, 500)},
			}},
		// Idle epoch: nothing ran.
		{Start: 1400, End: 1700, StallTID: kernel.NoThread, EndKind: kernel.BoundaryWake},
		{Start: 1700, End: 2900, StallTID: 1, EndKind: kernel.BoundarySleep,
			Slices: []kernel.ThreadSlice{
				{TID: 0, Delta: mk(1200, 200, 600, 1500)},
				{TID: 1, Delta: mk(1100, 900, 0, 700)},
			}},
	}
}

// TestBreakdownMatchesPredict locks the core invariant: the per-epoch Pred
// fields sum to exactly what PredictEpochs computes, for every engine, CTP
// mode and frequency direction.
func TestBreakdownMatchesPredict(t *testing.T) {
	epochs := breakdownEpochsFixture()
	for _, o := range []Options{
		{},
		{Burst: true},
		{Engine: LeadingLoads, Burst: true},
		{Engine: StallTime},
		{PerEpochCTP: true},
		{Burst: true, PerEpochCTP: true},
	} {
		for _, fr := range []struct{ base, target units.Freq }{
			{1000, 4000}, {4000, 1000}, {2000, 2000},
		} {
			want := PredictEpochs(epochs, fr.base, fr.target, o)
			var got units.Time
			for _, b := range BreakdownEpochs(epochs, fr.base, fr.target, o) {
				got += b.Pred
			}
			if got != want {
				t.Errorf("opts %+v %v->%v: breakdown sums to %v, PredictEpochs says %v",
					o, fr.base, fr.target, got, want)
			}
		}
	}
}

// TestBreakdownComponentsSum locks the attribution invariant: for every
// epoch, Pipeline + Memory + Burst + Idle == Pred.
func TestBreakdownComponentsSum(t *testing.T) {
	epochs := breakdownEpochsFixture()
	for _, o := range []Options{{Burst: true}, {}, {Burst: true, PerEpochCTP: true}} {
		for i, b := range BreakdownEpochs(epochs, 1000, 4000, o) {
			if sum := b.Pipeline + b.Memory + b.Burst + b.Idle; sum != b.Pred {
				t.Errorf("opts %+v epoch %d: components sum %v != pred %v", o, i, sum, b.Pred)
			}
		}
	}
}

func TestBreakdownIdleEpoch(t *testing.T) {
	epochs := breakdownEpochsFixture()
	bds := BreakdownEpochs(epochs, 1000, 4000, Options{Burst: true})
	if len(bds) != len(epochs) {
		t.Fatalf("%d breakdowns for %d epochs", len(bds), len(epochs))
	}
	idle := bds[2]
	if idle.Pred != 300 || idle.Idle != 300 || idle.Pipeline != 0 || idle.Memory != 0 || idle.Burst != 0 {
		t.Errorf("idle epoch breakdown = %+v; its full duration must be Idle", idle)
	}
	if idle.Instrs != 0 {
		t.Errorf("idle epoch has %d instrs", idle.Instrs)
	}
}

// TestBreakdownBurstAttribution: with Burst on, the store-queue time of the
// critical thread lands in the Burst component, not Memory.
func TestBreakdownBurstAttribution(t *testing.T) {
	epochs := []kernel.Epoch{
		{Start: 0, End: 1000, StallTID: 0, EndKind: kernel.BoundarySleep,
			Slices: []kernel.ThreadSlice{
				{TID: 0, Delta: cpu.Counters{Instrs: 100, Active: 1000, CritNS: 200, SQFull: 300}},
			}},
	}
	with := BreakdownEpochs(epochs, 1000, 4000, Options{Burst: true})[0]
	if with.Memory != 200 || with.Burst != 300 {
		t.Errorf("burst attribution: memory=%v burst=%v, want 200/300", with.Memory, with.Burst)
	}
	without := BreakdownEpochs(epochs, 1000, 4000, Options{})[0]
	if without.Burst != 0 {
		t.Errorf("burst component %v without Burst option", without.Burst)
	}
	// Without BURST the store-queue time is (wrongly) treated as scaling
	// work, so the prediction at a higher frequency is smaller.
	if without.Pred >= with.Pred {
		t.Errorf("BURST did not raise the high-frequency prediction: %v vs %v", with.Pred, without.Pred)
	}
}

// TestBreakdownInstrsSum: instruction attribution covers all threads.
func TestBreakdownInstrsSum(t *testing.T) {
	epochs := breakdownEpochsFixture()
	var want int64
	for i := range epochs {
		for _, sl := range epochs[i].Slices {
			want += sl.Delta.Instrs
		}
	}
	var got int64
	for _, b := range BreakdownEpochs(epochs, 1000, 4000, Options{Burst: true}) {
		got += b.Instrs
	}
	if got != want {
		t.Errorf("breakdown instrs %d, want %d", got, want)
	}
}

// TestSumBreakdownEpochsZeroAllocs locks the sampler's per-quantum
// attribution at zero heap allocations: per-epoch mode builds no slack
// tables.
func TestSumBreakdownEpochsZeroAllocs(t *testing.T) {
	epochs := breakdownEpochsFixture()
	avg := testing.AllocsPerRun(1000, func() {
		SumBreakdownEpochs(epochs, 1000, 4000, Options{Burst: true})
	})
	if avg != 0 {
		t.Errorf("SumBreakdownEpochs allocates %.2f objects/op, want 0", avg)
	}
}
