package surrogate

import (
	"math"
	"slices"
	"sort"
	"sync"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/units"
)

// Prediction sources, from most to least trusted.
const (
	SourceInterp = "interp" // group law, target inside the observed band
	SourceExtrap = "extrap" // group law, target outside the observed band
)

// DefaultMinConfidence is the serving threshold: tier 0 answers only when
// every estimate in the response clears it. Confidence is 1/(1+8·err), so
// a source clears it at a cross-validated error of 3.125% or less; the
// untrained extrapolation default (5%) does not.
const DefaultMinConfidence = 0.8

// Cross-validation error floors and the defaults a corpus without a group
// of three or more frequencies keeps. The floors keep one lucky fold from
// declaring a source near-perfect.
const (
	floorInterpErr   = 0.005
	floorExtrapErr   = 0.010
	defaultInterpErr = 0.020
	defaultExtrapErr = 0.050
)

// Estimate is one surrogate answer.
type Estimate struct {
	Time units.Time
	// Confidence in (0,1], monotone-decreasing in ErrEstimate.
	Confidence float64
	// ErrEstimate is the expected relative error, measured on held-out
	// corpus data at training time for the estimate's source.
	ErrEstimate float64
	Source      string
}

// group aggregates every observation that shares the frequency-independent
// inputs, plus the DVFS law fitted over them once two frequencies were
// observed.
type group struct {
	pts []core.TrainingPoint // sorted by Freq, frequencies unique
	law *core.Regression     // nil below two frequencies
}

// Model is the trained surrogate. It is safe for concurrent use: Predict
// takes a read lock, Observe a write lock.
type Model struct {
	mu sync.RWMutex

	// Cross-validated mean-abs relative errors per source.
	//depburst:guardedby mu
	interpErr, extrapErr float64

	//depburst:guardedby mu
	groups map[string]*group
}

// NewModel returns an empty model: both error estimates at their
// defaults, no groups. It learns exclusively through Observe until
// retrained.
func NewModel() *Model {
	return &Model{interpErr: defaultInterpErr, extrapErr: defaultExtrapErr, groups: map[string]*group{}}
}

// Train fits a model offline from a corpus scan. The result is independent
// of sample order, so corpora built at any -j produce identical models.
func Train(samples []Sample) *Model {
	m := NewModel()
	for _, s := range samples {
		m.add(s.Config, NewTruthManifest(s.Config, s.Spec).GroupID(), s.Time)
	}
	m.crossValidate()
	return m
}

// add inserts one observation of a run with configuration cfg into group
// id. Sampled runs never train the model: their times carry a
// machine-reported error bound the cross-validated estimates do not
// account for.
//
//depburst:locked mu
func (m *Model) add(cfg sim.Config, id string, t units.Time) {
	if id == "" || cfg.Freq <= 0 || cfg.Sampling.Enabled || t < 0 {
		return
	}
	g := m.groups[id]
	if g == nil {
		g = &group{}
		m.groups[id] = g
	}
	i := sort.Search(len(g.pts), func(i int) bool { return g.pts[i].Freq >= cfg.Freq })
	if i < len(g.pts) && g.pts[i].Freq == cfg.Freq {
		return // duplicate observation: truth runs are deterministic
	}
	g.pts = slices.Insert(g.pts, i, core.TrainingPoint{Freq: cfg.Freq, Time: t})
	g.law = nil
	if len(g.pts) >= 2 {
		if law, err := core.FitRegressionNonneg(g.pts); err == nil {
			g.law = law
		}
	}
}

// Observe folds one simulated result into the model online — the serving
// tier calls it on every fallback. It updates the result's group (and its
// law) immediately; the error estimates stay frozen until the next
// offline Train, which is what keeps Observe cheap and the estimates
// honest.
func (m *Model) Observe(cfg sim.Config, spec dacapo.Spec, t units.Time) {
	id := NewTruthManifest(cfg, spec).GroupID() // hashed before locking: readers wait only for the insert
	m.mu.Lock()
	defer m.mu.Unlock()
	m.add(cfg, id, t)
}

// crossValidate measures each source's mean-abs relative error on held-out
// corpus data: every point of every group with three or more frequencies
// is predicted from a law fitted without it — interior points score
// interpolation, band edges extrapolation. Floors keep a small corpus from
// declaring itself perfect, and extrapolation is never rated above
// interpolation.
//
//depburst:locked mu
func (m *Model) crossValidate() {
	ids := make([]string, 0, len(m.groups))
	for id := range m.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids) // one summation order, so retraining is bit-identical
	var interpErrs, extrapErrs []float64
	for _, id := range ids {
		pts := m.groups[id].pts
		if len(pts) < 3 {
			continue
		}
		for i, p := range pts {
			rest := append(pts[:i:i], pts[i+1:]...) // no spare capacity: never writes into pts
			law, err := core.FitRegressionNonneg(rest)
			if err != nil {
				continue
			}
			e := relErr(float64(law.Predict(nil, p.Freq)), float64(p.Time))
			if i == 0 || i == len(pts)-1 {
				extrapErrs = append(extrapErrs, e)
			} else {
				interpErrs = append(interpErrs, e)
			}
		}
	}
	m.interpErr = orDefault(interpErrs, defaultInterpErr, floorInterpErr)
	m.extrapErr = max(orDefault(extrapErrs, defaultExtrapErr, floorExtrapErr), m.interpErr)
}

func orDefault(errs []float64, def, floor float64) float64 {
	if len(errs) == 0 {
		return def
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return max(sum/float64(len(errs)), floor)
}

// Predict estimates the completion time of (cfg, spec) at cfg.Freq: the
// one-frequency case of PredictFreqs.
func (m *Model) Predict(cfg sim.Config, spec dacapo.Spec) (Estimate, bool) {
	est, ok := m.PredictFreqs(cfg, spec, []units.Freq{cfg.Freq})
	if !ok {
		return Estimate{}, false
	}
	return est[0], true
}

// PredictFreqs estimates the completion time of (cfg, spec) at each of
// freqs (cfg.Freq is ignored) from the query's group law, resolving the
// group once. ok is false when the group is unknown or has no law yet
// (fewer than two observed frequencies), or when a frequency is not
// positive; otherwise every estimate carries the confidence the serving
// tier gates on.
func (m *Model) PredictFreqs(cfg sim.Config, spec dacapo.Spec, freqs []units.Freq) ([]Estimate, bool) {
	id := NewTruthManifest(cfg, spec).GroupID()
	m.mu.RLock()
	defer m.mu.RUnlock()

	g := m.groups[id]
	if g == nil || g.law == nil {
		return nil, false
	}
	lo, hi := g.pts[0].Freq, g.pts[len(g.pts)-1].Freq
	out := make([]Estimate, len(freqs))
	for i, f := range freqs {
		if f <= 0 {
			return nil, false
		}
		source, errEst := SourceExtrap, m.extrapErr
		if f >= lo && f <= hi {
			source, errEst = SourceInterp, m.interpErr
		}
		out[i] = Estimate{
			Time:        g.law.Predict(nil, f),
			Confidence:  1 / (1 + 8*errEst),
			ErrEstimate: errEst,
			Source:      source,
		}
	}
	return out, true
}

// Summary describes a model for reports and logs.
type Summary struct {
	Groups    int     `json:"groups"`
	Points    int     `json:"points"`
	InterpErr float64 `json:"interp_err"`
	ExtrapErr float64 `json:"extrap_err"`
}

// Summarize returns the model's size and error estimates.
func (m *Model) Summarize() Summary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	points := 0
	for _, g := range m.groups {
		points += len(g.pts)
	}
	return Summary{Groups: len(m.groups), Points: points, InterpErr: m.interpErr, ExtrapErr: m.extrapErr}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}
