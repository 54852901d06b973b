// Package tracefmt exports a simulated run's timeline in the Chrome
// trace_event JSON format, loadable in chrome://tracing and Perfetto
// (https://ui.perfetto.dev). One track per kernel thread shows scheduling
// lifetimes, a GC track shows stop-the-world windows, counter tracks show
// each core's frequency and busy fraction per quantum and the DRAM
// activity series, and instant events mark DVFS transitions, epoch
// boundaries and runtime phase marks. Runs executed in sampled mode
// additionally get a track labelling each quantum fast-forward or
// detailed.
//
// The document is built from structs and slices in a fixed order, so
// identical runs export byte-identical timelines — the golden and
// determinism tests rely on it.
package tracefmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"depburst/internal/metrics"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// Process IDs group the timeline's tracks in trace viewers. They are part
// of the exported contract (the schema test pins them).
const (
	PidThreads  = 1 // one track per kernel thread
	PidGC       = 2 // stop-the-world windows and runtime marks
	PidDVFS     = 3 // per-core frequency and busy counters, transition instants
	PidEpochs   = 4 // synchronization epoch boundaries
	PidDRAM     = 5 // memory-system counter tracks
	PidSampling = 6 // sampled-vs-detailed quanta (sampled runs only)
)

// Event is one Chrome trace_event entry. Only the fields the format
// requires are emitted; Args marshals with sorted keys (encoding/json
// sorts map keys), keeping the output deterministic.
type Event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Document is the top-level Chrome trace wrapper.
type Document struct {
	DisplayTimeUnit string  `json:"displayTimeUnit"`
	TraceEvents     []Event `json:"traceEvents"`
}

// us converts simulated picoseconds to trace microseconds.
func us(t units.Time) float64 { return float64(t) / 1e6 }

// meta emits a process/thread naming metadata event.
func meta(name, kind string, pid, tid int) Event {
	return Event{
		Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	}
}

// Build assembles the timeline document from a run's observations. The GC
// spans, DVFS transition instants and DRAM series come from reg, the
// registry the run recorded into (Runner.InstrumentedRun attaches one).
func Build(res *sim.Result, reg *metrics.Registry) Document {
	doc := Document{DisplayTimeUnit: "ns"}
	ev := make([]Event, 0, 256)

	// Thread lifetime tracks: one complete event per kernel thread.
	for _, t := range res.Threads {
		end := t.End
		if end < t.Start {
			end = t.Start
		}
		ev = append(ev, Event{
			Name: fmt.Sprintf("%s (tid %d)", t.Name, t.ID),
			Ph:   "X", Ts: us(t.Start), Dur: us(end - t.Start),
			Pid: PidThreads, Tid: int(t.ID), Cat: t.Class.String(),
			Args: map[string]any{
				"instrs":    float64(t.C.Instrs),
				"active_us": us(t.C.Active),
				"crit_us":   us(t.C.CritNS),
				"sqfull_us": us(t.C.SQFull),
			},
		})
	}

	// Stop-the-world windows, recorded by the JVM as they close.
	for _, s := range reg.GCSpans() {
		name := "minor GC (STW)"
		if s.Major {
			name = "major GC (STW)"
		}
		ev = append(ev, Event{
			Name: name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
			Pid: PidGC, Tid: 0, Cat: "gc",
		})
	}
	// Runtime phase marks (gc-start/gc-end and friends).
	for _, m := range res.Marks {
		ev = append(ev, Event{
			Name: m.Label, Ph: "i", Ts: us(m.At),
			Pid: PidGC, Tid: 1, Cat: "mark", S: "p",
		})
	}

	// Per-core counter tracks, one point per quantum: the frequency the
	// core ran at, and the share of the quantum it was active, clamped to
	// [0,1]. A zero-length quantum reads 0, not the NaN JSON cannot carry.
	for _, s := range res.Samples {
		dur := s.End - s.Start
		for i, c := range s.PerCore {
			busy := 0.0
			if dur > 0 {
				busy = min(max(float64(c.Delta.Active)/float64(dur), 0), 1)
			}
			ev = append(ev, Event{
				Name: fmt.Sprintf("core%d freq", i), Ph: "C", Ts: us(s.Start),
				Pid: PidDVFS, Tid: i,
				Args: map[string]any{"mhz": float64(c.Freq)},
			}, Event{
				Name: fmt.Sprintf("core%d busy", i), Ph: "C", Ts: us(s.Start),
				Pid: PidDVFS, Tid: i,
				Args: map[string]any{"frac": busy},
			})
		}
	}
	// Exact DVFS transition instants, recorded by the machine as they are
	// applied.
	for _, c := range reg.FreqChanges() {
		name := "dvfs chip"
		if c.Core >= 0 {
			name = fmt.Sprintf("dvfs core%d", c.Core)
		}
		tid := c.Core
		if tid < 0 {
			tid = 0
		}
		ev = append(ev, Event{
			Name: name, Ph: "i", Ts: us(c.At),
			Pid: PidDVFS, Tid: tid, Cat: "dvfs", S: "g",
			Args: map[string]any{"mhz": float64(c.Freq)},
		})
	}

	// Synchronization epoch boundaries: one instant per epoch close, the
	// paper's unit of prediction.
	for _, ep := range res.Epochs {
		ev = append(ev, Event{
			Name: "epoch " + ep.EndKind.String(), Ph: "i", Ts: us(ep.End),
			Pid: PidEpochs, Tid: 0, Cat: "epoch", S: "t",
			Args: map[string]any{
				"dur_us":  us(ep.Duration()),
				"threads": float64(len(ep.Slices)),
			},
		})
	}

	// DRAM activity counter track: per-quantum reads, writes and bank
	// conflicts.
	for _, p := range reg.DRAMSeries() {
		ev = append(ev, Event{
			Name: "DRAM", Ph: "C", Ts: us(p.At),
			Pid: PidDRAM, Tid: 0,
			Args: map[string]any{
				"reads":     float64(p.Reads),
				"writes":    float64(p.Writes),
				"conflicts": float64(p.Conflicts),
			},
		})
	}

	// Sampled-simulation track: one complete event per quantum, labelled
	// fast-forward or detailed, so the viewer shows which stretches were
	// extrapolated. Emitted only when the run actually fast-forwarded —
	// full-detail exports stay byte-identical to their goldens.
	sampled := false
	for _, s := range res.Samples {
		if s.FF {
			sampled = true
			break
		}
	}
	if sampled {
		for _, s := range res.Samples {
			name := "detailed"
			if s.FF {
				name = "fast-forward"
			}
			ev = append(ev, Event{
				Name: name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start),
				Pid: PidSampling, Tid: 0, Cat: "sampling",
			})
		}
	}

	// Track-naming metadata, emitted last so viewers associate names
	// after all tracks exist.
	ev = append(ev,
		meta("threads", "process_name", PidThreads, 0),
		meta("gc", "process_name", PidGC, 0),
		meta("dvfs", "process_name", PidDVFS, 0),
		meta("epochs", "process_name", PidEpochs, 0),
		meta("dram", "process_name", PidDRAM, 0),
	)
	if sampled {
		ev = append(ev, meta("sampling", "process_name", PidSampling, 0))
	}

	doc.TraceEvents = ev
	return doc
}

// Write exports the run's timeline as Chrome trace JSON.
func Write(w io.Writer, res *sim.Result, reg *metrics.Registry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	//depburst:allow goldenio -- the trace_event format defines args as an open object; encoding/json sorts its keys, which the schema test pins
	if err := enc.Encode(Build(res, reg)); err != nil {
		return fmt.Errorf("tracefmt: encode: %w", err)
	}
	return bw.Flush()
}
