package core

import (
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// MCrit is the multithreaded extension of CRIT (§II-C): each thread's
// execution time is predicted independently from its whole-run counters,
// and the application's time is that of the slowest ("critical") predicted
// thread.
//
// A thread's observed duration is its wall-clock lifetime, which includes
// time asleep on synchronization — the model cannot tell waiting from
// computing, so wait time is misattributed to the scaling component. That
// misattribution is exactly the inaccuracy DEP removes.
type MCrit struct {
	Opts Options
}

// NewMCrit returns an M+CRIT model with the given options.
func NewMCrit(o Options) *MCrit { return &MCrit{Opts: o} }

// Name implements Model.
func (m *MCrit) Name() string { return "M+CRIT" + m.Opts.suffix() }

// Predict implements Model.
func (m *MCrit) Predict(obs *Observation, target units.Freq) units.Time {
	var worst units.Time
	for i := range obs.Threads {
		t := &obs.Threads[i]
		wall := t.End - t.Start
		if wall <= 0 {
			continue
		}
		p := predictThread(wall, &t.C, m.Opts, obs.Base, target)
		if p > worst {
			worst = p
		}
	}
	return worst
}

// COOP intercepts the JVM's collector start/stop signals and applies
// M+CRIT within each application or collector phase, summing the phase
// predictions (§II-C). Separating the phases removes the largest
// cross-phase misattribution (application threads sleeping during GC and
// vice versa) but keeps M+CRIT's blindness to synchronization within a
// phase.
type COOP struct {
	Opts Options
}

// NewCOOP returns a COOP model with the given options.
func NewCOOP(o Options) *COOP { return &COOP{Opts: o} }

// Name implements Model.
func (c *COOP) Name() string { return "COOP" + c.Opts.suffix() }

// phase is one application or collector interval with per-thread counter
// deltas accumulated from the epoch stream.
type phase struct {
	start, end units.Time
	collector  bool
	perThread  map[int]*threadAgg
}

type threadAgg struct {
	active units.Time
	ns     units.Time
}

// Predict implements Model.
func (c *COOP) Predict(obs *Observation, target units.Freq) units.Time {
	cuts, collector := phaseCuts(obs)
	phases := make([]phase, len(cuts)-1)
	for i := range phases {
		phases[i] = phase{
			start: cuts[i], end: cuts[i+1],
			collector: collector[i],
			perThread: make(map[int]*threadAgg),
		}
	}

	// Attribute each epoch's per-thread work to the phase containing its
	// midpoint (a real deployment reads counters exactly at the signals;
	// the epoch stream gives us the same totals).
	for _, ep := range obs.Epochs {
		mid := ep.Start + (ep.End-ep.Start)/2
		pi := findPhase(cuts, mid)
		if pi < 0 {
			continue
		}
		for j := range ep.Slices {
			sl := &ep.Slices[j]
			agg := phases[pi].perThread[int(sl.TID)]
			if agg == nil {
				agg = &threadAgg{}
				phases[pi].perThread[int(sl.TID)] = agg
			}
			agg.active += sl.Delta.Active
			agg.ns += nonScaling(&sl.Delta, sl.Delta.Active, c.Opts)
		}
	}

	var total units.Time
	for _, ph := range phases {
		dur := ph.end - ph.start
		if dur <= 0 {
			continue
		}
		// M+CRIT within the phase, over the threads the phase belongs
		// to: the JVM's signals tell COOP whether this is an
		// application or a collector phase, so it only considers the
		// corresponding thread class (that is the model's entire
		// advantage over M+CRIT). Within the class it retains
		// M+CRIT's blindness: every alive thread is assumed busy for
		// the phase's whole duration.
		var worst units.Time
		for _, t := range obs.Threads {
			if t.Start >= ph.end || t.End <= ph.start {
				continue
			}
			if ph.collector != (t.Class == kernel.ClassService) {
				continue
			}
			var ns units.Time
			if agg := ph.perThread[int(t.TID)]; agg != nil {
				ns = agg.ns
			}
			if ns > dur {
				ns = dur
			}
			p := scaleTime(dur-ns, obs.Base, target) + ns
			if p > worst {
				worst = p
			}
		}
		if worst == 0 {
			worst = scaleTime(dur, obs.Base, target)
		}
		total += worst
	}
	return total
}

// phaseCuts returns the sorted phase boundaries — run start, every GC
// start/end mark, and run end — plus, per phase, whether it is a collector
// phase.
func phaseCuts(obs *Observation) (cuts []units.Time, collector []bool) {
	cuts = []units.Time{0}
	inGC := false
	for _, mk := range obs.Marks {
		start := mk.Label == "gc-start"
		end := mk.Label == "gc-end"
		if !start && !end {
			continue
		}
		if mk.At > cuts[len(cuts)-1] && mk.At < obs.Total {
			cuts = append(cuts, mk.At)
			collector = append(collector, inGC)
		}
		inGC = start
	}
	cuts = append(cuts, obs.Total)
	collector = append(collector, inGC)
	return cuts, collector
}

// findPhase locates the phase containing t; cuts are sorted.
func findPhase(cuts []units.Time, t units.Time) int {
	for i := 0; i+1 < len(cuts); i++ {
		if t >= cuts[i] && t < cuts[i+1] {
			return i
		}
	}
	if len(cuts) >= 2 && t >= cuts[len(cuts)-1] {
		return len(cuts) - 2
	}
	return -1
}
