// Package surrogate is the learned fast path of the prediction service:
// a deterministic, dependency-free model trained on the simcache corpus
// that answers completion-time queries in microseconds, with an explicit
// confidence estimate so the serving layer can decide when to trust it and
// when to fall back to simulation.
//
// The model generalises the two-component DVFS law T(f) = S·f0/f + N
// (internal/core) from one fitted curve per profiled application to the
// full (machine config, workload spec) space:
//
//   - Runs that share every frequency-independent input form a group,
//     identified by a content hash of those inputs. A group with two or
//     more observed frequencies carries its own non-negative-clamped law —
//     interpolation inside the observed band is the most trusted source,
//     extrapolation outside it slightly less.
//   - A group seen at a single frequency is scaled by the corpus-wide mean
//     scaling fraction γ: T(f) = T1·(γ·f1/f + (1−γ)).
//   - A query whose group was never simulated is answered by k-NN over
//     standardized feature vectors of the known groups, each neighbour's
//     law rescaled by relative per-thread work. Cross-workload transfer is
//     the least trusted source and is floored at a conservative error.
//
// Every source's error estimate is measured at training time by
// cross-validation on the corpus itself (leave-one-frequency-out for the
// laws, leave-one-group-out for k-NN), so confidence is calibrated by
// construction: the error the model reports is the error it actually made
// on held-out corpus data. `depburst surrogatecheck` re-verifies both
// claims statistically and gates CI on them.
package surrogate

import (
	"math"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// KindTruth marks a manifest describing a full-detail ground-truth run —
// the only kind the trainer consumes today.
const KindTruth = "truth"

// Manifest is the metadata-sidecar record written next to each cached
// truth entry (simcache.PutMeta): the inputs that produced the entry, which
// the content hash alone cannot be inverted back into. It is what makes
// the cache a scannable training corpus.
type Manifest struct {
	Kind   string      `json:"kind"`
	Config sim.Config  `json:"config"`
	Spec   dacapo.Spec `json:"spec"`
}

// NewTruthManifest builds the manifest for a full-detail truth run,
// normalised for hashing and storage (the observability registry is not an
// input to the result).
func NewTruthManifest(cfg sim.Config, spec dacapo.Spec) Manifest {
	cfg.Metrics = nil
	return Manifest{Kind: KindTruth, Config: cfg, Spec: spec}
}

// GroupID is the content address of the manifest's frequency-independent
// inputs: two runs share a group exactly when they differ only in
// frequency. It is simcache.Key over the manifest with the frequency (and
// the observability registry) zeroed, or "" — no group — when an input
// cannot be keyed (NaN or ±Inf).
func (m Manifest) GroupID() string {
	m.Config.Freq = 0
	m.Config.Metrics = nil
	id, err := simcache.Key(m)
	if err != nil {
		return ""
	}
	return id
}

// features maps the frequency-independent inputs onto a fixed-length
// vector for the k-NN distance. Wide-ranged counts are log-compressed so
// no single scale dominates before standardization.
func (m Manifest) features() []float64 {
	c, sp := m.Config, m.Spec
	hotB := sp.HotFrac
	if sp.PhaseItems > 0 {
		hotB = sp.HotFracB
	}
	skew := 0.0
	if sp.SkewFirst {
		skew = float64(sp.SkewFactor)
	}
	memory := 0.0
	if sp.Memory {
		memory = 1
	}
	return []float64{
		float64(c.Cores),
		math.Log1p(float64(c.Quantum)),
		float64(sp.Threads),
		float64(sp.Kind),
		math.Log1p(float64(sp.Items)),
		math.Log1p(float64(sp.ItemInstrs)),
		math.Log1p(float64(sp.TotalInstrs())),
		sp.IPC,
		sp.LoadsPerKI,
		sp.StoresPerKI,
		sp.DepFrac,
		sp.HotFrac,
		hotB,
		math.Log1p(float64(sp.HotKB)),
		math.Log1p(float64(sp.ColdMB)),
		math.Log1p(float64(sp.PhaseItems)),
		math.Log1p(float64(sp.AllocPerItem)),
		sp.Survival,
		math.Log1p(float64(c.JVM.NurseryBytes)),
		float64(sp.CSPerItem),
		math.Log1p(float64(sp.CSInstrs)),
		skew,
		memory,
	}
}

// perThreadWork is the size proxy used to rescale a neighbour's prediction
// onto the queried workload.
func (m Manifest) perThreadWork() float64 {
	threads := m.Spec.Threads
	if threads < 1 {
		threads = 1
	}
	return float64(m.Spec.TotalInstrs()) / float64(threads)
}

// Sample is one training example: the inputs of a full-detail truth run
// and the completion time it produced.
type Sample struct {
	Config sim.Config
	Spec   dacapo.Spec
	Time   units.Time
}

func (s Sample) manifest() Manifest { return NewTruthManifest(s.Config, s.Spec) }
