package obsio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/kernel"
)

func sampleObs() *core.Observation {
	return &core.Observation{
		Base:  1000,
		Total: 5000,
		Threads: []core.ThreadObs{
			{TID: 0, Name: "main", Class: kernel.ClassApp, Start: 0, End: 5000,
				C: cpu.Counters{Active: 4000, CritNS: 700, SQFull: 100, Instrs: 9999}},
		},
		Epochs: []kernel.Epoch{
			{Start: 0, End: 2000, StallTID: 0, EndKind: kernel.BoundarySleep,
				Slices: []kernel.ThreadSlice{{TID: 0, Delta: cpu.Counters{Active: 2000, CritNS: 300}}}},
			{Start: 2000, End: 5000, StallTID: kernel.NoThread, EndKind: kernel.BoundaryExit,
				Slices: []kernel.ThreadSlice{{TID: 0, Delta: cpu.Counters{Active: 2000, CritNS: 400}}}},
		},
		Marks: []kernel.Mark{{At: 2000, Label: "gc-start"}},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	obs := sampleObs()
	if err := Write(&buf, "demo", obs); err != nil {
		t.Fatal(err)
	}
	name, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "demo" {
		t.Errorf("workload %q", name)
	}
	if got.Base != obs.Base || got.Total != obs.Total {
		t.Errorf("base/total changed: %+v", got)
	}
	if len(got.Threads) != 1 || got.Threads[0].C != obs.Threads[0].C {
		t.Errorf("threads changed: %+v", got.Threads)
	}
	if len(got.Epochs) != 2 || got.Epochs[0].Slices[0].Delta != obs.Epochs[0].Slices[0].Delta {
		t.Errorf("epochs changed: %+v", got.Epochs)
	}
	if len(got.Marks) != 1 || got.Marks[0].Label != "gc-start" {
		t.Errorf("marks changed: %+v", got.Marks)
	}

	// Predictions agree between original and round-tripped observation.
	m := core.NewDEPBurst()
	if a, b := m.Predict(obs, 4000), m.Predict(got, 4000); a != b {
		t.Errorf("prediction changed across round trip: %v vs %v", a, b)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "obs.json")
	if err := WriteFile(path, "f", sampleObs()); err != nil {
		t.Fatal(err)
	}
	name, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "f" || got == nil {
		t.Error("file round trip lost data")
	}
}

func TestVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, "x", sampleObs())
	raw := strings.Replace(buf.String(), `"version":1`, `"version":99`, 1)
	if _, _, err := Read(strings.NewReader(raw)); err == nil {
		t.Error("future version accepted")
	}
}

func TestGarbageRejected(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := Write(&bytes.Buffer{}, "x", nil); err == nil {
		t.Error("nil observation accepted")
	}
}

func TestValidation(t *testing.T) {
	bad := sampleObs()
	bad.Base = 0
	var buf bytes.Buffer
	Write(&buf, "x", bad)
	if _, _, err := Read(&buf); err == nil {
		t.Error("zero base frequency accepted")
	}

	bad = sampleObs()
	bad.Epochs[1].Start = 1000 // overlaps epoch 0
	buf.Reset()
	Write(&buf, "x", bad)
	if _, _, err := Read(&buf); err == nil {
		t.Error("overlapping epochs accepted")
	}

	bad = sampleObs()
	bad.Threads[0].End = -1
	buf.Reset()
	Write(&buf, "x", bad)
	if _, _, err := Read(&buf); err == nil {
		t.Error("inverted thread lifetime accepted")
	}
}

// TestThreadIDValidation rejects the thread IDs the DEP predictor cannot
// index: a negative slice thread, a negative stall other than NoThread, and
// any ID above MaxThreadID. IDs at the cap and NoThread stalls load.
func TestThreadIDValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		edit func(*core.Observation)
		ok   bool
	}{
		"negative slice":   {func(o *core.Observation) { o.Epochs[0].Slices[0].TID = -1 }, false},
		"negative stall":   {func(o *core.Observation) { o.Epochs[0].StallTID = -2 }, false},
		"slice above cap":  {func(o *core.Observation) { o.Epochs[1].Slices[0].TID = MaxThreadID + 1 }, false},
		"stall above cap":  {func(o *core.Observation) { o.Epochs[0].StallTID = MaxThreadID + 1 }, false},
		"thread above cap": {func(o *core.Observation) { o.Threads[0].TID = MaxThreadID + 1 }, false},
		"at the cap": {func(o *core.Observation) {
			o.Epochs[0].StallTID = MaxThreadID
			o.Epochs[1].Slices[0].TID = MaxThreadID
			o.Threads[0].TID = MaxThreadID
		}, true},
		"NoThread stall": {func(o *core.Observation) { o.Epochs[0].StallTID = kernel.NoThread }, true},
	} {
		obs := sampleObs()
		tc.edit(obs)
		var buf bytes.Buffer
		if err := Write(&buf, "x", obs); err != nil {
			t.Fatal(err)
		}
		_, got, err := Read(&buf)
		if (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want accepted %v", name, err, tc.ok)
			continue
		}
		if err == nil {
			core.NewDEPBurst().Predict(got, 4000)
		}
	}
}
