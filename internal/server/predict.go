package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/report"
	"depburst/internal/sampling"
	"depburst/internal/sim"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// Request-shape bounds: enough for a full DVFS sweep across every model,
// small enough that one request cannot demand unbounded work.
const (
	maxTargets = 64
	maxModels  = 8
)

// PredictRequest is the POST /v1/predict body. Exactly one of Bench (a
// stock-suite name) or Spec (a full benchmark definition, see
// `depburst suite`) selects the workload.
type PredictRequest struct {
	Bench      string       `json:"bench,omitempty"`
	Spec       *dacapo.Spec `json:"spec,omitempty"`
	BaseMHz    int64        `json:"base_mhz,omitempty"` // default 1000
	TargetsMHz []int64      `json:"targets_mhz"`        // required, ascending output order
	Models     []string     `json:"models,omitempty"`   // default ["dep+burst"]
	Actual     bool         `json:"actual,omitempty"`   // also simulate each target for rel_error

	// Sampling opts the request into sampled simulation (see DESIGN.md
	// "Sampled simulation"): its truth runs use online phase detection and
	// fast-forward extrapolation, trading a machine-reported error bound
	// for severalfold faster cold predictions. Absent (or enabled=false):
	// full detail. {"enabled":true} selects the default policy. Sampled
	// and full-detail results never share cache entries.
	Sampling *sampling.Policy `json:"sampling,omitempty"`
}

// PredictResponse is the POST /v1/predict result. Field names are frozen
// per the /v1 schema policy (DESIGN.md); Sampling is additive and appears
// only when the request opted into sampled simulation, Tier and Surrogate
// are additive and appear only when the learned fast path answered (a
// fallback response is byte-identical to a surrogate-less server's).
type PredictResponse struct {
	Bench       string            `json:"bench"`
	BaseMHz     int64             `json:"base_mhz"`
	BaseTimePS  int64             `json:"base_time_ps"`
	Predictions []Prediction      `json:"predictions"`
	Sampling    *PredictSampling  `json:"sampling,omitempty"`
	Tier        string            `json:"tier,omitempty"`
	Surrogate   *PredictSurrogate `json:"surrogate,omitempty"`
}

// PredictSurrogate annotates a surrogate-tier response with how much the
// model trusts it: the weakest confidence and largest cross-validated
// relative-error estimate over every frequency the response covers.
type PredictSurrogate struct {
	Confidence  float64 `json:"confidence"`
	ErrEstimate float64 `json:"err_estimate"`
}

// Serving-tier labels, as reported in PredictResponse.Tier and the metrics
// registry: the learned fast path, sampled simulation, full-detail
// simulation.
const (
	TierSurrogate = "surrogate"
	TierSampled   = "sampled"
	TierFull      = "full"
)

// PredictSampling annotates a sampled response with the accuracy the
// simulations themselves reported.
type PredictSampling struct {
	// ErrorBound is the largest relative completion-time error bound any
	// simulation behind this response reported: every *_ps field is
	// within it of its full-detail value.
	ErrorBound float64 `json:"error_bound"`
	// FastFrac is the fraction of simulated time that was fast-forwarded,
	// aggregated over those simulations.
	FastFrac float64 `json:"fast_frac"`
}

// Prediction is one (model, target) cell.
type Prediction struct {
	Model       string   `json:"model"`
	TargetMHz   int64    `json:"target_mhz"`
	PredictedPS int64    `json:"predicted_ps"`
	ActualPS    int64    `json:"actual_ps,omitempty"`
	RelError    *float64 `json:"rel_error,omitempty"`
}

// modelNames maps the wire names onto predictor constructors, in the
// canonical (paper) order used when a request asks for several.
var modelNames = []string{"mcrit", "mcrit+burst", "coop", "coop+burst", "dep", "dep+burst"}

func modelFor(name string) (core.Model, bool) {
	switch name {
	case "mcrit":
		return core.NewMCrit(core.Options{}), true
	case "mcrit+burst":
		return core.NewMCrit(core.Options{Burst: true}), true
	case "coop":
		return core.NewCOOP(core.Options{}), true
	case "coop+burst":
		return core.NewCOOP(core.Options{Burst: true}), true
	case "dep":
		return core.NewDEP(core.Options{}), true
	case "dep+burst":
		return core.NewDEP(core.Options{Burst: true}), true
	}
	return nil, false
}

// DecodePredictRequest reads, strictly parses and validates one predict
// request from r: unknown fields, trailing data and out-of-range parameters
// are errors, and the body is capped at limit bytes. The returned request is
// normalised (defaults applied, targets sorted and deduplicated), so equal
// workloads decode to equal values — the property the request coalescer
// keys on. This is also the fuzzing entry point.
func DecodePredictRequest(r io.Reader, limit int64) (*PredictRequest, error) {
	if limit > 0 {
		r = io.LimitReader(r, limit+1)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("parse request: %w", err)
	}
	// A second value (or garbage) after the document is an error; EOF is
	// the only acceptable outcome.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("trailing data after request body")
	}

	switch {
	case req.Bench == "" && req.Spec == nil:
		return nil, fmt.Errorf("one of bench or spec is required")
	case req.Bench != "" && req.Spec != nil:
		return nil, fmt.Errorf("bench and spec are mutually exclusive")
	}
	if req.Spec != nil {
		if err := req.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	if req.BaseMHz == 0 {
		req.BaseMHz = 1000
	}
	if req.BaseMHz < 100 || req.BaseMHz > 20_000 {
		return nil, fmt.Errorf("base_mhz %d outside [100,20000]", req.BaseMHz)
	}
	if len(req.TargetsMHz) == 0 {
		return nil, fmt.Errorf("targets_mhz is required")
	}
	if len(req.TargetsMHz) > maxTargets {
		return nil, fmt.Errorf("%d targets exceeds the limit of %d", len(req.TargetsMHz), maxTargets)
	}
	for _, t := range req.TargetsMHz {
		if t < 100 || t > 20_000 {
			return nil, fmt.Errorf("target_mhz %d outside [100,20000]", t)
		}
	}
	sort.Slice(req.TargetsMHz, func(i, j int) bool { return req.TargetsMHz[i] < req.TargetsMHz[j] })
	req.TargetsMHz = dedupInt64(req.TargetsMHz)

	if len(req.Models) == 0 {
		req.Models = []string{"dep+burst"}
	}
	if len(req.Models) > maxModels {
		return nil, fmt.Errorf("%d models exceeds the limit of %d", len(req.Models), maxModels)
	}
	seen := make(map[string]bool, len(req.Models))
	norm := req.Models[:0]
	for _, m := range req.Models {
		if _, ok := modelFor(m); !ok {
			return nil, fmt.Errorf("unknown model %q (have %v)", m, modelNames)
		}
		if !seen[m] {
			seen[m] = true
			norm = append(norm, m)
		}
	}
	req.Models = norm

	if req.Sampling != nil {
		p := *req.Sampling
		switch {
		case p.K < 0 || p.K > 256:
			return nil, fmt.Errorf("sampling.k %d outside [0,256]", p.K)
		case p.Tolerance < 0 || p.Tolerance > 0.5:
			return nil, fmt.Errorf("sampling.tolerance %v outside [0,0.5]", p.Tolerance)
		case p.CheckInterval < 0 || p.CheckInterval > 4096:
			return nil, fmt.Errorf("sampling.check_interval %d outside [0,4096]", p.CheckInterval)
		case p.SafetyFactor < 0 || p.SafetyFactor > 16:
			return nil, fmt.Errorf("sampling.safety_factor %v outside [0,16]", p.SafetyFactor)
		}
		// Normalise so equal effective policies coalesce (and cache) as
		// one; an explicitly disabled policy is the same request as no
		// sampling field at all.
		p = p.Normalized()
		if !p.Enabled {
			req.Sampling = nil
		} else {
			*req.Sampling = p
		}
	}
	return &req, nil
}

func dedupInt64(xs []int64) []int64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// key returns the canonical coalescing key: the normalised request's JSON.
// Two requests for identical work always produce identical keys, because
// DecodePredictRequest normalises ordering and defaults.
func (req *PredictRequest) key() string {
	b, err := json.Marshal(req)
	if err != nil {
		// A decoded request always re-marshals; this is unreachable.
		panic(err)
	}
	return string(b)
}

// flight is one in-progress predict computation other identical requests
// join. A failed flight is cleared so the next arrival retries, mirroring
// the Runner's singleflight semantics.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// handlePredict serves POST /v1/predict: strict decode, coalesce with
// identical in-flight work, backpressure on the worker queue, then compute
// under the request deadline.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	req, err := DecodePredictRequest(body, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := s.resolveSpec(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now() //depburst:allow determinism -- tier latency telemetry observes the real clock; it never feeds prediction output
	if body, ok := s.trySurrogate(req, spec); ok {
		//depburst:allow determinism -- tier latency telemetry observes the real clock
		s.cfg.Metrics.ObserveTier(TierSurrogate, time.Since(start).Nanoseconds())
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	ctx := r.Context()
	key := req.key()

	for {
		s.flights.Lock()
		f := s.flights.m[key]
		if f == nil {
			f = &flight{done: make(chan struct{})}
			s.flights.m[key] = f
			s.flights.Unlock()
			s.leadPredict(ctx, key, f, req, spec)
		} else {
			s.flights.Unlock()
			s.cfg.Metrics.IncCoalesced()
			select {
			case <-f.done:
			case <-ctx.Done():
				writeCtxError(w, ctx.Err())
				return
			}
		}
		switch {
		case f.err == nil:
			w.Header().Set("Content-Type", "application/json")
			w.Write(f.body)
			return
		case errors.Is(f.err, errSaturated):
			w.Header().Set("Retry-After", "1")
			s.cfg.Metrics.IncRejected()
			writeError(w, http.StatusTooManyRequests, "prediction queue full")
			return
		case errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				// This caller's own deadline/disconnect.
				writeCtxError(w, ctx.Err())
				return
			}
			// The flight's leader was cancelled but this caller is still
			// live: take over as the new leader.
			continue
		default:
			writeError(w, http.StatusInternalServerError, "%v", f.err)
			return
		}
	}
}

// errSaturated marks a flight refused by the backpressure gate.
var errSaturated = fmt.Errorf("server: saturated")

// leadPredict executes the flight: acquire a worker slot (or refuse when the
// queue is full), compute, publish, and clear the flight. The flight map
// never keeps completed entries — memoisation lives in the Runner and the
// disk cache; the map exists only to merge concurrent identical work.
func (s *Server) leadPredict(ctx context.Context, key string, f *flight, req *PredictRequest, spec dacapo.Spec) {
	defer func() {
		s.flights.Lock()
		delete(s.flights.m, key)
		s.flights.Unlock()
		close(f.done)
	}()
	if s.waiting.Load() >= int64(s.cfg.MaxQueue) {
		f.err = errSaturated
		return
	}
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.waiting.Add(-1)
		f.err = ctx.Err()
		return
	}
	start := time.Now() //depburst:allow determinism -- tier latency telemetry observes the real clock; it never feeds prediction output
	f.body, f.err = s.computePredict(ctx, req, spec)
	if f.err == nil {
		tier := TierFull
		if req.Sampling != nil {
			tier = TierSampled
		}
		//depburst:allow determinism -- tier latency telemetry observes the real clock
		s.cfg.Metrics.ObserveTier(tier, time.Since(start).Nanoseconds())
	}
}

// trySurrogate attempts to serve the request from the learned fast path,
// with one model lookup for the base and every target. It answers only
// when every frequency the response covers clears the confidence gate;
// one weak estimate falls the whole request through to the Runner tiers,
// so a response never mixes learned and simulated numbers. Requests that
// ask for ground truth (actual), sampled simulation, or any model beyond
// the default dep+burst always fall through: those contracts are about the
// simulator, not the model of the simulator.
func (s *Server) trySurrogate(req *PredictRequest, spec dacapo.Spec) ([]byte, bool) {
	m := s.cfg.Surrogate
	if m == nil || req.Actual || req.Sampling != nil {
		return nil, false
	}
	if len(req.Models) != 1 || req.Models[0] != "dep+burst" {
		return nil, false
	}
	freqs := make([]units.Freq, 1, 1+len(req.TargetsMHz))
	freqs[0] = units.Freq(req.BaseMHz)
	for _, tgt := range req.TargetsMHz {
		freqs = append(freqs, units.Freq(tgt))
	}
	ests, ok := m.PredictFreqs(s.cfg.Runner.TruthConfig(spec, freqs[0]), spec, freqs)
	if !ok {
		return nil, false
	}
	base := ests[0]
	resp := PredictResponse{
		Bench:      spec.Name,
		BaseMHz:    req.BaseMHz,
		BaseTimePS: int64(base.Time),
		Tier:       TierSurrogate,
		Surrogate:  &PredictSurrogate{Confidence: base.Confidence, ErrEstimate: base.ErrEstimate},
	}
	for i, est := range ests {
		if est.Confidence < surrogate.DefaultMinConfidence {
			return nil, false
		}
		if est.Confidence < resp.Surrogate.Confidence {
			resp.Surrogate.Confidence = est.Confidence
		}
		if est.ErrEstimate > resp.Surrogate.ErrEstimate {
			resp.Surrogate.ErrEstimate = est.ErrEstimate
		}
		if i > 0 {
			resp.Predictions = append(resp.Predictions, Prediction{
				Model:       req.Models[0],
				TargetMHz:   req.TargetsMHz[i-1],
				PredictedPS: int64(est.Time),
			})
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// observeTruth feeds one truth result r computed back into the surrogate:
// every fallback the slower tiers compute makes the fast path answer more
// of the neighbourhood next time. It passes the configuration r actually
// simulated, so the model itself refuses sampled results, whether the
// request or the Runner chose sampling.
func (s *Server) observeTruth(r *experiments.Runner, spec dacapo.Spec, f units.Freq, t units.Time) {
	if s.cfg.Surrogate != nil {
		s.cfg.Surrogate.Observe(r.TruthConfig(spec, f), spec, t)
	}
}

// computePredict runs the base (and, with actual set, target) simulations
// through the Runner — memoised, singleflight-deduplicated, disk-cached —
// and assembles the response. The response bytes are a pure function of the
// request, so cold and warm paths are byte-identical.
func (s *Server) computePredict(ctx context.Context, req *PredictRequest, spec dacapo.Spec) ([]byte, error) {
	r := s.cfg.Runner
	if req.Sampling != nil {
		// The policy is part of every memo key, so a copy of the shared
		// Runner with the policy installed can never alias full detail.
		sampled := *r
		sampled.SetSampling(*req.Sampling)
		r = &sampled
	}
	base, err := r.TruthCtx(ctx, spec, units.Freq(req.BaseMHz))
	if err != nil {
		return nil, err
	}
	s.observeTruth(r, spec, units.Freq(req.BaseMHz), base.Time)
	obs := experiments.Observe(base)

	resp := PredictResponse{
		Bench:      spec.Name,
		BaseMHz:    req.BaseMHz,
		BaseTimePS: int64(base.Time),
	}
	// Each target's truth is fetched and observed once, then shared by
	// every model's cell.
	var truths []*sim.Result
	if req.Actual {
		truths = make([]*sim.Result, len(req.TargetsMHz))
		for i, tgt := range req.TargetsMHz {
			if truths[i], err = r.TruthCtx(ctx, spec, units.Freq(tgt)); err != nil {
				return nil, err
			}
			s.observeTruth(r, spec, units.Freq(tgt), truths[i].Time)
		}
	}
	var agg samplingAgg
	agg.add(base)
	for _, name := range req.Models {
		m, _ := modelFor(name)
		for i, tgt := range req.TargetsMHz {
			p := Prediction{
				Model:       name,
				TargetMHz:   tgt,
				PredictedPS: int64(m.Predict(obs, units.Freq(tgt))),
			}
			if truths != nil {
				truth := truths[i]
				p.ActualPS = int64(truth.Time)
				re := report.RelError(float64(p.PredictedPS), float64(p.ActualPS))
				p.RelError = &re
				agg.add(truth)
			}
			resp.Predictions = append(resp.Predictions, p)
		}
	}
	if req.Sampling != nil {
		resp.Sampling = agg.annotation()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// samplingAgg accumulates the sampling reports of every simulation behind
// one response: the largest error bound and the time-weighted
// fast-forwarded fraction.
type samplingAgg struct {
	bound       float64
	fast, total units.Time
}

func (a *samplingAgg) add(res *sim.Result) {
	if res.Sampling == nil {
		return
	}
	if res.Sampling.ErrorBound > a.bound {
		a.bound = res.Sampling.ErrorBound
	}
	a.fast += res.Sampling.FastTime
	a.total += res.Sampling.TotalTime
}

func (a *samplingAgg) annotation() *PredictSampling {
	ps := &PredictSampling{ErrorBound: a.bound}
	if a.total > 0 {
		ps.FastFrac = float64(a.fast) / float64(a.total)
	}
	return ps
}

// resolveSpec maps the request's workload selector onto a benchmark spec:
// a stock-suite (or server-suite) name, or the embedded definition.
func (s *Server) resolveSpec(req *PredictRequest) (dacapo.Spec, error) {
	if req.Spec != nil {
		return *req.Spec, nil
	}
	for _, spec := range s.cfg.Runner.Suite() {
		if spec.Name == req.Bench {
			return spec, nil
		}
	}
	spec, err := dacapo.ByName(req.Bench)
	if err != nil {
		return dacapo.Spec{}, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	return spec, nil
}
