// Package core implements the paper's contribution: DVFS performance
// predictors for managed multithreaded applications.
//
// Given a run observed at a base frequency — per-thread hardware counters,
// the futex-delimited synchronization epochs, and the GC phase marks — each
// model predicts the application's execution time at a target frequency:
//
//   - M+CRIT: per-thread CRIT totals, total time = slowest thread (§II-C).
//     Thread sleep time is silently misattributed to the scaling component.
//   - COOP: splits the run at garbage-collection boundaries and applies
//     M+CRIT per phase (§II-C).
//   - DEP: splits the run into synchronization epochs at every futex sleep
//     and wake, predicts each thread within each epoch, and aggregates with
//     critical-thread prediction, either per-epoch or across epochs via
//     delta counters (Algorithm 1, §III).
//   - BURST: adds the store-queue-full time to any model's non-scaling
//     component, capturing zero-initialisation and GC-copy store bursts
//     (§III-D).
//
// The per-thread scaling/non-scaling split is pluggable: CRIT (default),
// Leading Loads, or Stall Time (§II-A), enabling the paper's comparisons.
package core

import (
	"fmt"

	"depburst/internal/cpu"
	"depburst/internal/kernel"
	"depburst/internal/units"
)

// Engine selects the per-thread DVFS estimator that splits execution into
// scaling and non-scaling components.
type Engine int

// Per-thread estimator engines (§II-A).
const (
	// CRIT accumulates the critical path through each cluster of
	// long-latency loads (Miftakhutdinov et al.).
	CRIT Engine = iota
	// LeadingLoads charges the full latency of the leading load of each
	// miss cluster.
	LeadingLoads
	// StallTime charges only cycles in which commit was blocked on
	// memory.
	StallTime
)

func (e Engine) String() string {
	switch e {
	case CRIT:
		return "CRIT"
	case LeadingLoads:
		return "LL"
	case StallTime:
		return "STALL"
	default:
		return "?"
	}
}

// Options configure a model.
type Options struct {
	// Engine is the per-thread estimator; CRIT is the paper's choice.
	Engine Engine
	// Burst adds the store-queue-full counter to the non-scaling
	// component (the +BURST models).
	Burst bool
	// PerEpochCTP makes DEP use per-epoch critical-thread prediction
	// instead of the more accurate across-epoch CTP (Figure 4's
	// comparison). Only DEP consults it.
	PerEpochCTP bool
}

// ThreadObs is what a predictor deployment can observe about one thread at
// the base frequency: its lifetime and final hardware counters.
type ThreadObs struct {
	TID        kernel.ThreadID
	Name       string
	Class      kernel.Class
	Start, End units.Time
	C          cpu.Counters
}

// Observation is a complete base-frequency run observation.
type Observation struct {
	// Base is the frequency the run was measured at.
	Base units.Freq
	// Total is the measured execution time.
	Total units.Time
	// Threads holds per-thread lifetimes and counters.
	Threads []ThreadObs
	// Epochs is the futex-delimited epoch stream (DEP's input).
	Epochs []kernel.Epoch
	// Marks holds the GC phase annotations (COOP's input).
	Marks []kernel.Mark
}

// Model predicts execution time at a target frequency from a
// base-frequency observation.
type Model interface {
	Name() string
	Predict(obs *Observation, target units.Freq) units.Time
}

// scaleTime rescales a scaling-component duration from base to target
// frequency: work that took d at base takes d·base/target at target.
func scaleTime(d units.Time, base, target units.Freq) units.Time {
	if d <= 0 {
		return 0
	}
	return units.Time(int64(d) * int64(base) / int64(target))
}

// nonScaling extracts the engine's non-scaling estimate from counters,
// optionally adding the BURST store-queue-full time, clamped to [0, active].
func nonScaling(c *cpu.Counters, active units.Time, o Options) units.Time {
	var ns units.Time
	switch o.Engine {
	case CRIT:
		ns = c.CritNS
	case LeadingLoads:
		ns = c.LeadNS
	case StallTime:
		ns = c.StallNS
	default:
		panic(fmt.Sprintf("core: unknown engine %d", o.Engine))
	}
	if o.Burst {
		ns += c.SQFull
	}
	if ns < 0 {
		ns = 0
	}
	if ns > active {
		ns = active
	}
	return ns
}

// predictThread applies the two-component DVFS law to one thread's
// observed duration: T' = (T - N)·base/target + N.
func predictThread(active units.Time, c *cpu.Counters, o Options, base, target units.Freq) units.Time {
	ns := nonScaling(c, active, o)
	return scaleTime(active-ns, base, target) + ns
}

// suffix names the +BURST variants.
func (o Options) suffix() string {
	s := ""
	if o.Engine != CRIT {
		s += "(" + o.Engine.String() + ")"
	}
	if o.Burst {
		s += "+BURST"
	}
	return s
}
