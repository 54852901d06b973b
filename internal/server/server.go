// Package server exposes the simulator as a prediction service: a JSON HTTP
// API over the experiments Runner with request coalescing, bounded-queue
// backpressure, per-request deadline propagation into the simulator's
// sampling loop, and graceful drain.
//
// Serving is tiered (DESIGN.md "Tiered serving"): an optional learned
// surrogate answers eligible predict requests in microseconds when its
// confidence clears the gate (tier 0), sampled simulation trades a bounded
// error for severalfold faster cold runs (tier 1), and full-detail
// simulation is the ground truth backstop (tier 2). Every full-detail
// truth a fallback computes is fed back into the surrogate online.
//
// Endpoints:
//
//	POST /v1/predict              DEP+BURST (and friends) prediction for one
//	                              benchmark across a target-frequency set
//	GET  /v1/experiments/fig1     Figure 1 table (JSON)
//	GET  /v1/experiments/fig7     Figure 7 table (JSON, ?step=MHz)
//	GET  /v1/experiments/energy   Figure 6 energy-manager table (JSON)
//	GET  /v1/metrics              serving metrics (JSON, ?format=prometheus)
//	GET  /healthz                 liveness (always 200 while the process runs)
//	GET  /readyz                  readiness (503 once draining)
//
// The API schema stability policy is documented in DESIGN.md: response field
// names are frozen per /v1; breaking changes bump the path version.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/report"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// Config assembles a Server. Zero fields take the documented defaults.
type Config struct {
	// Runner executes and memoises simulations. Required.
	Runner *experiments.Runner

	// Workers caps concurrently-executing predict requests (default 2).
	// The Runner's own pool additionally caps simulations; this gate
	// bounds request-level work and defines the backpressure queue.
	Workers int

	// MaxQueue caps predict requests waiting for a worker slot. Arrivals
	// beyond it are refused with 429 + Retry-After instead of queueing
	// unboundedly (default 16).
	MaxQueue int

	// Timeout bounds each request's total work; the deadline propagates
	// through the Runner into the simulator's sampling loop. 0 disables.
	Timeout time.Duration

	// MaxBody caps the request body the decoder reads (default 1 MiB).
	MaxBody int64

	// DrainTimeout bounds graceful shutdown once Serve's context is
	// cancelled (default 10s).
	DrainTimeout time.Duration

	// Metrics receives per-route telemetry. nil disables recording.
	Metrics *metrics.ServerRegistry

	// Step is the fig7 static-sweep granularity in MHz when the request
	// does not override it with ?step= (default 500: the full 125 MHz
	// paper grid is a batch workload, not a request).
	Step units.Freq

	// Surrogate, when set, serves eligible predict requests from the
	// learned fast path (tier 0) before any simulation is scheduled, and
	// absorbs every full-detail truth the slower tiers compute (see
	// DESIGN.md "Tiered serving"). An estimate answers only when its
	// confidence reaches surrogate.DefaultMinConfidence. nil disables the
	// tier.
	Surrogate *surrogate.Model
}

// Server is the HTTP layer. Construct with New, run with Serve.
type Server struct {
	cfg Config
	mux *http.ServeMux

	sem     chan struct{} // predict worker slots
	waiting atomic.Int64  // predict requests queued for a slot

	draining atomic.Bool

	flights struct {
		sync.Mutex
		//depburst:guardedby Mutex
		m map[string]*flight
	}
}

// New validates cfg, applies defaults, and assembles the routing table.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("server: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Step <= 0 {
		cfg.Step = 500
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.Workers),
	}
	s.flights.m = make(map[string]*flight)

	s.route("POST /v1/predict", s.handlePredict)
	s.route("GET /v1/experiments/fig1", s.experimentHandler("fig1"))
	s.route("GET /v1/experiments/fig7", s.experimentHandler("fig7"))
	s.route("GET /v1/experiments/energy", s.experimentHandler("energy"))
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.route("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return s, nil
}

// route registers a handler wrapped with per-route telemetry: the pattern is
// the metrics label, and the recorder captures status and wall latency.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //depburst:allow determinism -- latency telemetry observes the real clock; it never feeds prediction output
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		//depburst:allow determinism -- latency telemetry observes the real clock
		s.cfg.Metrics.ObserveRequest(pattern, rec.status, time.Since(start).Nanoseconds())
	})
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Handler returns the routing table, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler with the per-request deadline applied.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// Serve accepts connections on ln until ctx is cancelled, then marks the
// server draining (readyz turns 503), stops accepting, and waits up to
// DrainTimeout for in-flight requests to finish.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	// The drain context must outlive the just-cancelled serve ctx, so it is
	// deliberately detached from it.
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout) //depburst:allow ctxflow -- deliberate detachment: draining starts when ctx is already done
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

// writeCtxError maps a context failure on a request to its HTTP status:
// deadline exceeded is 504; a client that went away gets a best-effort 499
// (the write is usually moot).
func writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	writeError(w, 499, "request cancelled")
}

// experimentHandler serves one experiment table as JSON. The request context
// is bound into the Runner, so a disconnect or deadline stops spawning
// simulations and unwinds the in-progress ones within a sampling quantum.
func (s *Server) experimentHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		step := s.cfg.Step
		if v := r.URL.Query().Get("step"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 25 || n > 3000 {
				writeError(w, http.StatusBadRequest, "invalid step %q (want MHz in [25,3000])", v)
				return
			}
			step = units.Freq(n)
		}
		rc := s.cfg.Runner.WithContext(ctx)
		var table *report.Table
		err := experiments.Cancelable(func() {
			switch name {
			case "fig1":
				table = rc.Fig1()
			case "fig7":
				table = rc.Fig7(step)
			case "energy":
				table = rc.Fig6()
			}
		})
		if err != nil {
			writeCtxError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := table.FprintJSON(w); err != nil {
			// Headers are gone; nothing recoverable.
			return
		}
	}
}

// handleMetrics serves the serving-layer registry, refreshing the
// point-in-time gauges first. ?format=prometheus selects the text
// exposition format; the default is the JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.cfg.Metrics
	if reg == nil {
		writeError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	reg.SetGauge("simulations_total", float64(s.cfg.Runner.Simulations()))
	reg.SetGauge("queue_depth", float64(s.waiting.Load()))
	if disk := s.cfg.Runner.DiskCache(); disk != nil {
		st := disk.Stats()
		reg.SetGauge("simcache_hits", float64(st.Hits))
		reg.SetGauge("simcache_misses", float64(st.Misses))
	}
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w)
}
