package surrogate

import (
	"math"
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
	SourceScale  = "scale"  // single observation scaled by the corpus γ
	SourceKNN    = "knn"    // cross-workload k-NN transfer
)

// DefaultMinConfidence is the serving threshold: tier 0 answers only when
// every estimate in the response clears it. At the default error floors it
// admits group-law answers and rejects γ-scaling and k-NN transfer.
const DefaultMinConfidence = 0.8

// knnK is the neighbourhood size for cross-workload transfer.
const knnK = 3

// Cross-validation error floors and (for an empty corpus) defaults. The
// floors keep one lucky fold from declaring a source near-perfect; the
// k-NN floor is deliberately high — cross-workload transfer is never
// trusted into the serving band at the default threshold.
const (
	floorInterpErr   = 0.005
	floorExtrapErr   = 0.010
	floorKNNErr      = 0.060
	defaultInterpErr = 0.020
	defaultExtrapErr = 0.050
	defaultKNNErr    = 0.120
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

// point is one observed (frequency, completion time) pair of a group.
type point struct {
	Freq units.Freq
	Time units.Time
}

// group aggregates every observation that shares the frequency-independent
// inputs, plus the DVFS law fitted over them when two or more frequencies
// were observed.
type group struct {
	id    string
	bench string
	feat  []float64
	pts   []point // sorted by Freq, frequencies unique

	fitted bool
	law    *core.Regression
}

func (g *group) refit() {
	g.fitted = false
	if len(g.pts) < 2 {
		return
	}
	tp := make([]core.TrainingPoint, len(g.pts))
	for i, p := range g.pts {
		tp[i] = core.TrainingPoint{Freq: p.Freq, Time: p.Time}
	}
	law, err := core.FitRegressionNonneg(tp)
	if err != nil {
		return
	}
	g.fitted = true
	g.law = law
}

// predict evaluates the group's own evidence at f and reports whether the
// target sits inside the observed frequency band. gamma supplies the
// corpus-wide scaling fraction for single-point groups.
func (g *group) predict(f units.Freq, gamma float64) (t float64, interp bool, ok bool) {
	switch {
	case g.fitted:
		t = float64(g.law.Predict(nil, f))
		interp = f >= g.pts[0].Freq && f <= g.pts[len(g.pts)-1].Freq
		return t, interp, true
	case len(g.pts) == 1:
		p := g.pts[0]
		t = float64(p.Time) * (gamma*float64(p.Freq)/float64(f) + (1 - gamma))
		return t, false, true
	default:
		return 0, false, false
	}
}

// scalingFrac is the group's scaling fraction S/(S+N) with both components
// normalised to the group's reference frequency.
func (g *group) scalingFrac() (float64, bool) {
	if !g.fitted {
		return 0, false
	}
	s, n, _ := g.law.Components()
	if s+n <= 0 {
		return 0, false
	}
	return float64(s) / float64(s+n), true
}

// Model is the trained surrogate. It is safe for concurrent use: Predict
// takes a read lock, Observe a write lock.
type Model struct {
	mu sync.RWMutex

	// gamma is the corpus-wide mean scaling fraction, used to scale
	// single-observation groups across frequency.
	//depburst:guardedby mu
	gamma float64
	// Cross-validated mean-abs relative errors per source.
	//depburst:guardedby mu
	interpErr, extrapErr, knnErr float64
	// Feature standardization, frozen at the last Train.
	//depburst:guardedby mu
	featMean, featStd []float64

	//depburst:guardedby mu
	groups []*group // sorted by id
	//depburst:guardedby mu
	byID map[string]*group
}

// NewModel returns an empty model: every error estimate at its default,
// no groups. It learns exclusively through Observe until retrained.
func NewModel() *Model {
	m := &Model{byID: map[string]*group{}}
	m.gamma = 0.5
	m.interpErr, m.extrapErr, m.knnErr = defaultInterpErr, defaultExtrapErr, defaultKNNErr
	return m
}

// Train fits a model offline from a corpus scan. The result is independent
// of sample order, so corpora built at any -j produce byte-identical
// models.
func Train(samples []Sample) *Model {
	m := NewModel()
	for _, s := range samples {
		man := s.manifest()
		m.add(man, man.GroupID(), s.Time)
	}
	m.finalize()
	return m
}

// add inserts one observation of the manifest's run, which belongs to group
// id, without recomputing corpus-wide statistics.
//
//depburst:locked mu
func (m *Model) add(man Manifest, id string, t units.Time) {
	if id == "" || man.Config.Freq <= 0 || t < 0 {
		return
	}
	g := m.byID[id]
	if g == nil {
		g = &group{id: id, bench: man.Spec.Name, feat: man.features()}
		m.byID[id] = g
		i := sort.Search(len(m.groups), func(i int) bool { return m.groups[i].id >= id })
		m.groups = append(m.groups, nil)
		copy(m.groups[i+1:], m.groups[i:])
		m.groups[i] = g
	}
	f := man.Config.Freq
	i := sort.Search(len(g.pts), func(i int) bool { return g.pts[i].Freq >= f })
	if i < len(g.pts) && g.pts[i].Freq == f {
		return // duplicate observation: truth runs are deterministic
	}
	g.pts = append(g.pts, point{})
	copy(g.pts[i+1:], g.pts[i:])
	g.pts[i] = point{Freq: f, Time: t}
	g.refit()
}

// Observe folds one simulated result into the model online — the serving
// tier calls it on every fallback. It updates the result's group (and its
// law) immediately; the corpus-wide statistics (γ, standardization, error
// estimates) stay frozen until the next offline Train, which is what keeps
// Observe cheap and the estimates honest.
func (m *Model) Observe(cfg sim.Config, spec dacapo.Spec, t units.Time) {
	man := NewTruthManifest(cfg, spec)
	id := man.GroupID() // hashed before locking: readers wait only for the insert
	m.mu.Lock()
	defer m.mu.Unlock()
	m.add(man, id, t)
}

// finalize recomputes corpus-wide statistics: γ, feature standardization,
// and the cross-validated per-source error estimates.
//
//depburst:locked mu
func (m *Model) finalize() {
	var fracs []float64
	for _, g := range m.groups {
		if frac, ok := g.scalingFrac(); ok {
			fracs = append(fracs, frac)
		}
	}
	m.gamma = 0.5
	if len(fracs) > 0 {
		m.gamma = mean(fracs)
	}

	if n := len(m.groups); n > 0 {
		dims := len(m.groups[0].feat)
		m.featMean = make([]float64, dims)
		m.featStd = make([]float64, dims)
		for _, g := range m.groups {
			for d, v := range g.feat {
				m.featMean[d] += v
			}
		}
		for d := range m.featMean {
			m.featMean[d] /= float64(n)
		}
		for _, g := range m.groups {
			for d, v := range g.feat {
				dv := v - m.featMean[d]
				m.featStd[d] += dv * dv
			}
		}
		for d := range m.featStd {
			m.featStd[d] = math.Sqrt(m.featStd[d] / float64(n))
			if m.featStd[d] < 1e-9 {
				m.featStd[d] = 1
			}
		}
	}

	m.crossValidate()
}

// crossValidate measures each source's mean-abs relative error on held-out
// corpus data: every interior point of every group is predicted from a law
// fitted without it (interp), every band edge from a law fitted without it
// (extrap), and every group's points from a model without the whole group
// (knn). Floors prevent a small corpus from declaring itself perfect, and
// the estimates are forced onto the trust ladder interp <= extrap <= knn.
//
//depburst:locked mu
func (m *Model) crossValidate() {
	var interpErrs, extrapErrs, knnErrs []float64
	for _, g := range m.groups {
		if len(g.pts) >= 3 {
			for i := range g.pts {
				rest := make([]core.TrainingPoint, 0, len(g.pts)-1)
				for j, p := range g.pts {
					if j != i {
						rest = append(rest, core.TrainingPoint{Freq: p.Freq, Time: p.Time})
					}
				}
				law, err := core.FitRegressionNonneg(rest)
				if err != nil {
					continue
				}
				e := relErr(float64(law.Predict(nil, g.pts[i].Freq)), float64(g.pts[i].Time))
				if i == 0 || i == len(g.pts)-1 {
					extrapErrs = append(extrapErrs, e)
				} else {
					interpErrs = append(interpErrs, e)
				}
			}
		}
	}
	// Leave-one-group-out k-NN: predict each group's points while excluding
	// the group itself from the neighbourhood.
	for _, g := range m.groups {
		for _, p := range g.pts {
			t, _, ok := m.knnPredict(g.feat, g.work(), p.Freq, g.id)
			if ok {
				knnErrs = append(knnErrs, relErr(t, float64(p.Time)))
			}
		}
	}

	m.interpErr = orDefault(interpErrs, defaultInterpErr, floorInterpErr)
	m.extrapErr = orDefault(extrapErrs, defaultExtrapErr, floorExtrapErr)
	m.knnErr = orDefault(knnErrs, defaultKNNErr, floorKNNErr)
	if m.extrapErr < m.interpErr {
		m.extrapErr = m.interpErr
	}
	if m.knnErr < m.extrapErr {
		m.knnErr = m.extrapErr
	}
}

func orDefault(errs []float64, def, floor float64) float64 {
	if len(errs) == 0 {
		return def
	}
	e := mean(errs)
	if e < floor {
		e = floor
	}
	return e
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
// freqs (cfg.Freq is ignored), resolving the query's group once. ok is
// false only when some frequency has no usable evidence at all (or the
// query is malformed); otherwise every estimate carries the confidence the
// serving tier gates on.
func (m *Model) PredictFreqs(cfg sim.Config, spec dacapo.Spec, freqs []units.Freq) ([]Estimate, bool) {
	man := NewTruthManifest(cfg, spec)
	id := man.GroupID()
	if id == "" {
		return nil, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()

	g := m.byID[id]
	var feat []float64 // the k-NN query, built on first use
	out := make([]Estimate, len(freqs))
	for i, f := range freqs {
		if f <= 0 {
			return nil, false
		}
		if g != nil {
			if t, interp, ok := g.predict(f, m.gamma); ok {
				switch {
				case g.fitted && interp:
					out[i] = m.estimate(t, SourceInterp, m.interpErr)
				case g.fitted:
					out[i] = m.estimate(t, SourceExtrap, m.extrapErr)
				default:
					out[i] = m.estimate(t, SourceScale, (m.extrapErr+m.knnErr)/2)
				}
				continue
			}
		}
		if feat == nil {
			feat = man.features()
		}
		t, dist, ok := m.knnPredict(feat, man.perThreadWork(), f, "")
		if !ok {
			return nil, false
		}
		out[i] = m.estimate(t, SourceKNN, m.knnErr*(1+dist))
	}
	return out, true
}

// estimate clamps and packages one answer.
func (m *Model) estimate(t float64, source string, errEst float64) Estimate {
	if t < 0 {
		t = 0
	}
	return Estimate{
		Time:        units.Time(math.Round(t)),
		Confidence:  1 / (1 + 8*errEst),
		ErrEstimate: errEst,
		Source:      source,
	}
}

// knnPredict answers from the k nearest groups (excluding the one named),
// each neighbour's own prediction rescaled by relative per-thread work and
// weighted by inverse distance. The returned dist is the mean neighbour
// distance, which widens the error estimate. Deterministic: candidates are
// ranked by (distance, group id).
//
//depburst:locked mu
func (m *Model) knnPredict(feat []float64, work float64, f units.Freq, exclude string) (t, dist float64, ok bool) {
	type cand struct {
		d float64
		g *group
	}
	var cands []cand
	for _, g := range m.groups {
		if g.id == exclude || len(g.pts) == 0 || len(g.feat) != len(feat) {
			continue
		}
		cands = append(cands, cand{m.distance(feat, g.feat), g})
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].g.id < cands[j].g.id
	})
	if len(cands) > knnK {
		cands = cands[:knnK]
	}
	var sumW, sumWT, sumD float64
	n := 0
	for _, c := range cands {
		nt, _, cok := c.g.predict(f, m.gamma)
		if !cok {
			continue
		}
		nw := c.g.work()
		if nw <= 0 || work <= 0 {
			continue
		}
		w := 1 / (c.d + 1e-6)
		sumW += w
		sumWT += w * nt * (work / nw)
		sumD += c.d
		n++
	}
	if n == 0 || sumW == 0 {
		return 0, 0, false
	}
	return sumWT / sumW, sumD / float64(n), true
}

// distance is the mean per-dimension standardized absolute difference.
// Standardization uses the statistics frozen at the last Train; an
// Observe-only model compares raw features.
//
//depburst:locked mu
func (m *Model) distance(a, b []float64) float64 {
	var d float64
	for i := range a {
		dv := a[i] - b[i]
		if len(m.featStd) == len(a) && m.featStd[i] > 0 {
			dv /= m.featStd[i]
		}
		d += math.Abs(dv)
	}
	return d / float64(len(a))
}

// work is the group's per-thread-instructions proxy, recovered from its
// feature vector (kept there so the model file needs no second copy).
func (g *group) work() float64 {
	// features(): index 6 is log1p(TotalInstrs), index 2 is Threads.
	if len(g.feat) < 7 {
		return 0
	}
	threads := g.feat[2]
	if threads < 1 {
		threads = 1
	}
	return math.Expm1(g.feat[6]) / threads
}

// Summary describes a model for reports and logs.
type Summary struct {
	Groups    int     `json:"groups"`
	Points    int     `json:"points"`
	Gamma     float64 `json:"gamma"`
	InterpErr float64 `json:"interp_err"`
	ExtrapErr float64 `json:"extrap_err"`
	KNNErr    float64 `json:"knn_err"`
}

// Summarize returns the model's corpus-wide statistics.
func (m *Model) Summarize() Summary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := Summary{
		Groups: len(m.groups), Gamma: m.gamma,
		InterpErr: m.interpErr, ExtrapErr: m.extrapErr, KNNErr: m.knnErr,
	}
	for _, g := range m.groups {
		s.Points += len(g.pts)
	}
	return s
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
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
