package obsio

import (
	"bytes"
	"reflect"
	"testing"

	"depburst/internal/core"
	"depburst/internal/cpu"
	"depburst/internal/kernel"
)

// seedObservation is a small valid recording for the fuzz corpus.
func seedObservation() *core.Observation {
	return &core.Observation{
		Base:  1000,
		Total: 5_000_000,
		Threads: []core.ThreadObs{
			{TID: 0, Name: "main", Class: kernel.ClassApp, Start: 0, End: 5_000_000,
				C: cpu.Counters{Instrs: 1000, Active: 4_000_000, CritNS: 500_000}},
		},
		Epochs: []kernel.Epoch{
			{Start: 0, End: 2_000_000, StallTID: 0, EndKind: kernel.BoundarySleep,
				Slices: []kernel.ThreadSlice{{TID: 0, Delta: cpu.Counters{Instrs: 600, Active: 2_000_000}}}},
			{Start: 2_000_000, End: 5_000_000, StallTID: kernel.NoThread, EndKind: kernel.BoundaryWake},
		},
		Marks: []kernel.Mark{{At: 1_000_000, Label: "gc-start"}},
	}
}

// FuzzObsRoundTrip feeds arbitrary bytes to the observation reader. Any
// input the reader accepts must be predictable without a panic, survive
// Write -> Read unchanged, and the written form must be canonical (a
// second Write of the re-read observation is byte-identical).
func FuzzObsRoundTrip(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, "seed", seedObservation()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"observation":{"Base":1000,"Total":5}}`))
	f.Add([]byte(`{"version":2,"observation":{"Base":1000}}`))
	f.Add([]byte(`{"version":1,"workload":"w","observation":{"Base":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		name, obs, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing else to check
		}
		for _, m := range []core.Model{core.NewMCrit(core.Options{}), core.NewCOOP(core.Options{}), core.NewDEPBurst()} {
			m.Predict(obs, 4000)
		}
		var out bytes.Buffer
		if err := Write(&out, name, obs); err != nil {
			t.Fatalf("accepted observation failed to write: %v", err)
		}
		name2, obs2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written observation failed: %v", err)
		}
		if name != name2 {
			t.Fatalf("workload changed across round trip: %q -> %q", name, name2)
		}
		if !reflect.DeepEqual(obs, obs2) {
			t.Fatalf("observation changed across round trip:\nbefore: %+v\nafter:  %+v", obs, obs2)
		}
		var out2 bytes.Buffer
		if err := Write(&out2, name2, obs2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("written form is not canonical: two writes of the same observation differ")
		}
	})
}
