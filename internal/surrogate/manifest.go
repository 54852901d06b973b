// Package surrogate is tier 0 of the prediction service: the paper's
// two-component DVFS law T(f) = S·f0/f + N (internal/core), fitted per
// configuration group over the simcache corpus, answering completion-time
// queries in microseconds with an explicit confidence so the serving
// layer can decide when to trust it and when to fall back to simulation.
//
// Runs that share every frequency-independent input form a group,
// identified by a content hash of those inputs. A group observed at two
// or more frequencies carries its own non-negative law: interpolation
// inside the observed band is the most trusted source, extrapolation
// outside it slightly less. A query whose group is unknown, or was
// observed at a single frequency, gets no estimate and falls through to
// simulation.
//
// Each source's error estimate is measured at training time by
// leave-one-point-out cross-validation on the corpus itself, so the error
// the model reports is the error it actually made on held-out corpus
// data. `depburst surrogatecheck` re-verifies that claim over a cold
// corpus and gates CI on it.
package surrogate

import (
	"encoding/json"

	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// KindTruth marks a manifest describing a full-detail ground-truth run —
// the only kind the trainer consumes today.
const KindTruth = "truth"

// Manifest is the record each cached truth entry carries in its frame
// (simcache.PutMeta): the inputs that produced the entry, which the
// content hash alone cannot be inverted back into. It is what makes the
// cache a scannable training corpus.
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

// MarshalBinary encodes the manifest as JSON, the bytes a cache entry
// carries.
func (m Manifest) MarshalBinary() ([]byte, error) { return json.Marshal(m) }

// UnmarshalBinary decodes a manifest MarshalBinary encoded.
func (m *Manifest) UnmarshalBinary(b []byte) error { return json.Unmarshal(b, m) }

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

// Sample is one training example: the inputs of a full-detail truth run
// and the completion time it produced.
type Sample struct {
	Config sim.Config
	Spec   dacapo.Spec
	Time   units.Time
}
