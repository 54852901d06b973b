package tracefmt

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"depburst/internal/cpu"
	"depburst/internal/jvm"
	"depburst/internal/kernel"
	"depburst/internal/metrics"
	"depburst/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRun builds a small synthetic run plus a matching registry: two
// threads, one GC pause, a couple of epochs and quanta. Hand-built so the
// golden bytes only change when the exporter changes, never when the
// simulator's models move.
func fixtureRun() (*sim.Result, *metrics.Registry) {
	res := &sim.Result{
		Workload: "synthetic",
		Freq:     2000,
		Time:     10_000_000, // 10 µs
		Threads: []sim.ThreadResult{
			{ID: 0, Name: "main", Class: kernel.ClassApp, Start: 0, End: 10_000_000,
				C: cpu.Counters{Instrs: 20_000, Active: 9_000_000, CritNS: 2_000_000, SQFull: 500_000}},
			{ID: 1, Name: "GC worker", Class: kernel.ClassService, Start: 1_000_000, End: 9_000_000,
				C: cpu.Counters{Instrs: 4_000, Active: 3_000_000, CritNS: 1_000_000}},
		},
		Epochs: []kernel.Epoch{
			{Start: 0, End: 4_000_000, StallTID: 0, EndKind: kernel.BoundarySleep,
				Slices: []kernel.ThreadSlice{{TID: 0, Delta: cpu.Counters{Instrs: 10_000, Active: 4_000_000}}}},
			{Start: 4_000_000, End: 10_000_000, StallTID: kernel.NoThread, EndKind: kernel.BoundaryWake,
				Slices: []kernel.ThreadSlice{{TID: 1, Delta: cpu.Counters{Instrs: 4_000, Active: 3_000_000}}}},
		},
		Marks: []kernel.Mark{
			{At: 2_000_000, Label: "gc-start"},
			{At: 2_400_000, Label: "gc-end"},
		},
		GC: jvm.Stats{MinorGCs: 1, GCTime: 400_000,
			Pauses: []jvm.Pause{{Start: 2_000_000, End: 2_400_000}}},
		Samples: []sim.QuantumSample{
			{Start: 0, End: 5_000_000, Freq: 2000, DRAMAccesses: 120,
				PerCore: []sim.CoreSample{
					{Freq: 2000, Delta: cpu.Counters{Active: 5_000_000}},
					{Freq: 2000, Delta: cpu.Counters{Active: 1_250_000}},
				}},
			{Start: 5_000_000, End: 10_000_000, Freq: 1500, DRAMAccesses: 40,
				PerCore: []sim.CoreSample{
					{Freq: 1500, Delta: cpu.Counters{Active: 4_000_000}},
					{Freq: 2000, Delta: cpu.Counters{Active: 3_000_000}},
				}},
		},
	}
	reg := metrics.NewRegistry()
	reg.SetRun("synthetic", 2000)
	reg.RecordGCSpan(2_000_000, 2_400_000, false)
	reg.RecordFreqChange(5_000_000, -1, 1500)
	reg.RecordDRAMPoint(metrics.DRAMPoint{At: 5_000_000, Reads: 90, Writes: 30, Conflicts: 10, BusUtilization: 0.4})
	reg.RecordDRAMPoint(metrics.DRAMPoint{At: 10_000_000, Reads: 30, Writes: 10, Conflicts: 1, BusUtilization: 0.1})
	return res, reg
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test -update ./...'): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update if the change is intended)\ngot:\n%s", path, got)
	}
}

func TestWriteGolden(t *testing.T) {
	res, reg := fixtureRun()
	var buf bytes.Buffer
	if err := Write(&buf, res, reg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.golden.json", buf.Bytes())
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	res, reg := fixtureRun()
	if err := Write(&a, res, reg); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, res, reg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same fixture differ")
	}
}

// TestBuildTracks checks the assembled document structurally: every track
// family present, phases legal, timestamps in microseconds, and a busy point
// beside each frequency point on every core, holding the core's active
// share of the quantum clamped to [0,1].
func TestBuildTracks(t *testing.T) {
	res, reg := fixtureRun()
	// An over-full quantum and a zero-length one must still read inside
	// [0,1].
	res.Samples = append(res.Samples,
		sim.QuantumSample{Start: 10_000_000, End: 12_000_000, PerCore: []sim.CoreSample{
			{Freq: 1500, Delta: cpu.Counters{Active: 3_000_000}}, {Freq: 2000}}},
		sim.QuantumSample{Start: 12_000_000, End: 12_000_000, PerCore: []sim.CoreSample{
			{Freq: 1500}, {Freq: 2000}}})
	doc := Build(res, reg)
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byPid := map[int]int{}
	byPh := map[string]int{}
	freqs := map[string]int{}
	busy := map[string][]float64{}
	for _, e := range doc.TraceEvents {
		byPid[e.Pid]++
		byPh[e.Ph]++
		switch e.Ph {
		case "X", "i", "C", "M":
		default:
			t.Errorf("illegal phase %q on %q", e.Ph, e.Name)
		}
		if e.Ph == "C" && e.Pid == PidDVFS {
			switch core, kind, _ := strings.Cut(e.Name, " "); kind {
			case "freq":
				freqs[core]++
			case "busy":
				busy[core] = append(busy[core], e.Args["frac"].(float64))
			default:
				t.Errorf("unexpected counter %q", e.Name)
			}
		}
	}
	for _, pid := range []int{PidThreads, PidGC, PidDVFS, PidEpochs, PidDRAM} {
		if byPid[pid] == 0 {
			t.Errorf("no events on pid %d", pid)
		}
	}
	// 2 threads + 1 GC span = 3 complete events; 5 process_name records.
	if byPh["X"] != 3 {
		t.Errorf("%d complete events, want 3", byPh["X"])
	}
	if byPh["M"] != 5 {
		t.Errorf("%d metadata events, want 5", byPh["M"])
	}
	// One thread event: 10 µs duration shows up as 10.0 in trace time.
	var seen bool
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == PidThreads && e.Tid == 0 {
			if e.Dur != 10.0 {
				t.Errorf("main thread dur = %v µs, want 10", e.Dur)
			}
			seen = true
		}
	}
	if !seen {
		t.Error("main thread track missing")
	}
	want := map[string][]float64{
		"core0": {1, 0.8, 1, 0},
		"core1": {0.25, 0.6, 0, 0},
	}
	if len(busy) != len(want) {
		t.Errorf("busy tracks for %d cores, want %d", len(busy), len(want))
	}
	for core, w := range want {
		if !slices.Equal(busy[core], w) {
			t.Errorf("%s busy = %v, want %v", core, busy[core], w)
		}
		if freqs[core] != len(w) {
			t.Errorf("%s has %d freq points, want %d", core, freqs[core], len(w))
		}
	}
}

// TestSamplingTrack covers the sampled-simulation track: a run with
// fast-forwarded quanta gains a PidSampling track labelling every quantum,
// while a full-detail run emits nothing on that pid (the goldens above pin
// the byte identity of that case).
func TestSamplingTrack(t *testing.T) {
	full, reg := fixtureRun()
	for _, e := range Build(full, reg).TraceEvents {
		if e.Pid == PidSampling {
			t.Fatalf("full-detail export emits sampling event %q", e.Name)
		}
	}

	res, reg := fixtureRun()
	res.Samples[1].FF = true
	doc := Build(res, reg)
	var names []string
	metas := 0
	for _, e := range doc.TraceEvents {
		if e.Pid != PidSampling {
			continue
		}
		switch e.Ph {
		case "X":
			names = append(names, e.Name)
		case "M":
			metas++
		default:
			t.Errorf("unexpected phase %q on sampling track", e.Ph)
		}
	}
	want := []string{"detailed", "fast-forward"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("sampling track events %v, want %v", names, want)
	}
	if metas != 1 {
		t.Errorf("%d sampling process_name records, want 1", metas)
	}
}

// TestSchemaStability pins the trace_event wire format: the top-level
// wrapper keys, the per-event keys, and the track pid assignments that
// viewers and the golden files depend on.
func TestSchemaStability(t *testing.T) {
	if PidThreads != 1 || PidGC != 2 || PidDVFS != 3 || PidEpochs != 4 || PidDRAM != 5 || PidSampling != 6 {
		t.Error("track pid constants changed; goldens and consumers must be updated together")
	}
	res, reg := fixtureRun()
	raw, err := json.Marshal(Build(res, reg))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"displayTimeUnit", "traceEvents"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("top-level key %q missing", k)
		}
	}
	if len(doc) != 2 {
		t.Errorf("top level has %d keys, want 2", len(doc))
	}
	var events []map[string]json.RawMessage
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"name": true, "ph": true, "ts": true, "dur": true,
		"pid": true, "tid": true, "cat": true, "s": true, "args": true,
	}
	for _, e := range events {
		for k := range e {
			if !allowed[k] {
				t.Fatalf("unexpected event key %q (trace_event schema change)", k)
			}
		}
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("required event key %q missing", k)
			}
		}
	}
}
