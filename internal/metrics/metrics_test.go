package metrics

import (
	"io"
	"reflect"
	"testing"

	"depburst/internal/units"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30})
	for _, v := range []int64{5, 10, 11, 25, 31, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 2} // (<=10)x2, (<=20)x1, (<=30)x1, overflow x2
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 5+10+11+25+31+1000 {
		t.Errorf("Sum = %d", h.Sum())
	}
	if h.min != 5 || h.max != 1000 {
		t.Errorf("min/max = %d/%d, want 5/1000", h.min, h.max)
	}
	if m := h.Mean(); m < 180 || m > 181 {
		t.Errorf("Mean = %v", m)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(latBounds)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("empty histogram not all-zero")
	}
}

// TestNilRegistryIsSafe locks the disabled state: every method on a nil
// *Registry must be a no-op, never a panic — the simulator's hot loops call
// them unconditionally.
func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.SetRun("x", 1000)
	r.ObserveDRAM(false, 10, true)
	r.ObserveDRAM(true, 10, false)
	r.ObserveSQStall(5)
	r.ObserveMissCluster(7)
	r.ObserveEpoch(100)
	r.RecordFreqChange(1, 0, 2000)
	r.RecordGCSpan(0, 10, false)
	r.RecordDRAMPoint(DRAMPoint{})
	r.RecordQuantumPred(QuantumPred{})
	r.RecordEpochError(EpochError{})
	r.SetPredictionSummary(PredictionSummary{})
	if r.Counts() != (Counts{}) {
		t.Error("nil registry Counts not zero")
	}
	if r.GCSpans() != nil || r.FreqChanges() != nil || r.DRAMSeries() != nil ||
		r.QuantumPreds() != nil || r.EpochErrors() != nil || r.Summary() != nil {
		t.Error("nil registry accessors not nil")
	}
	doc := r.Export()
	if doc.Version != FormatVersion {
		t.Errorf("nil Export version = %d", doc.Version)
	}
}

// TestEveryRegistryMethodIsNilSafe calls every exported method of both
// registry types on a nil receiver, so a method added or changed without
// its nil guard fails here even when no hand-written test names it.
// Arguments are zero values, except io.Discard for interface parameters.
// Each method recovers on its own, so one panic does not hide the rest.
func TestEveryRegistryMethodIsNilSafe(t *testing.T) {
	for _, recv := range []reflect.Value{
		reflect.ValueOf((*Registry)(nil)),
		reflect.ValueOf((*ServerRegistry)(nil)),
	} {
		typ := recv.Type()
		if typ.NumMethod() == 0 {
			t.Fatalf("%s has no exported methods", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := make([]reflect.Value, m.Type.NumIn()-1)
			for j := range args {
				in := m.Type.In(j + 1)
				if in.Kind() == reflect.Interface {
					args[j] = reflect.ValueOf(io.Discard)
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%s).%s panics on a nil receiver: %v", typ, m.Name, p)
					}
				}()
				recv.Method(i).Call(args)
			}()
		}
	}
}

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	r.ObserveDRAM(false, 25_000, false)
	r.ObserveDRAM(false, 55_000, true)
	r.ObserveDRAM(true, 120_000, false)
	r.ObserveSQStall(4_000)
	r.ObserveMissCluster(90_000)
	r.ObserveEpoch(1_000_000)
	r.RecordFreqChange(10, -1, 3000)
	r.RecordGCSpan(0, 500_000, false)
	r.RecordGCSpan(1_000_000, 3_000_000, true)

	n := r.Counts()
	want := Counts{
		DRAMReads: 2, DRAMWrites: 1, BankConflicts: 1,
		SQFullStalls: 1, MissClusters: 1, DVFSTransitions: 1,
		GCMinor: 1, GCMajor: 1, Epochs: 1,
	}
	if n != want {
		t.Errorf("Counts = %+v, want %+v", n, want)
	}
	if got := r.gcPause.Count(); got != 2 {
		t.Errorf("gc pause histogram count = %d, want 2", got)
	}
	if len(r.GCSpans()) != 2 || len(r.FreqChanges()) != 1 {
		t.Error("span/transition records missing")
	}
}

// TestHotPathZeroAllocs locks the tentpole guarantee on BOTH sides of the
// nil check: the disabled (nil-registry) path and the enabled observation
// path are allocation-free. Only cold records (spans, series) may append.
func TestHotPathZeroAllocs(t *testing.T) {
	var lat units.Time = 42_000
	t.Run("nil", func(t *testing.T) {
		var r *Registry
		avg := testing.AllocsPerRun(1000, func() {
			r.ObserveDRAM(false, lat, true)
			r.ObserveSQStall(lat)
			r.ObserveMissCluster(lat)
			r.ObserveEpoch(lat)
		})
		if avg != 0 {
			t.Errorf("nil-registry hot path allocates %.2f objects/op, want 0", avg)
		}
	})
	t.Run("enabled", func(t *testing.T) {
		r := NewRegistry()
		avg := testing.AllocsPerRun(1000, func() {
			r.ObserveDRAM(false, lat, true)
			r.ObserveDRAM(true, lat, false)
			r.ObserveSQStall(lat)
			r.ObserveMissCluster(lat)
			r.ObserveEpoch(lat)
		})
		if avg != 0 {
			t.Errorf("enabled hot path allocates %.2f objects/op, want 0", avg)
		}
	})
}

func TestExportRelError(t *testing.T) {
	r := NewRegistry()
	r.SetPredictionSummary(PredictionSummary{
		Model: "DEP", Base: 1000, Target: 4000,
		Predicted: 110, Actual: 100,
	})
	doc := r.Export()
	if doc.Prediction == nil {
		t.Fatal("summary did not produce a prediction block")
	}
	if e := doc.Prediction.RelError; e < 0.0999 || e > 0.1001 {
		t.Errorf("RelError = %v, want 0.1", e)
	}
}

// TestExportComponentsSum locks the component invariant: the aggregate
// split equals the per-epoch sums.
func TestExportComponentsSum(t *testing.T) {
	r := NewRegistry()
	r.RecordEpochError(EpochError{Pred: 100, Pipeline: 40, Memory: 50, Burst: 10})
	r.RecordEpochError(EpochError{Pred: 60, Pipeline: 20, Memory: 30, Burst: 5, Idle: 5})
	doc := r.Export()
	c := doc.Prediction.Components
	if c.PipelinePS != 60 || c.MemoryPS != 80 || c.BurstPS != 15 || c.IdlePS != 5 {
		t.Errorf("components = %+v", c)
	}
}
