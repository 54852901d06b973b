package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/server"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// service is serve-mixed's fixture: an in-process server on a loopback
// listener whose disk cache holds the Figure 1 matrix and whose surrogate
// was trained from it, plus the truths its answers are checked against.
type service struct {
	e      *env
	store  *simcache.Store
	runner *experiments.Runner // the server's
	reg    *metrics.ServerRegistry
	model  *surrogate.Model
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error

	samples   []surrogate.Sample         // training corpus
	trainDur  time.Duration              // surrogate.Train on it
	truth     map[string]map[int64]int64 // stock Figure 1 matrix, ps
	heldFreqs map[string][]units.Freq
	held      map[string]map[int64]int64 // held-out truths, ps; never shown to the server
	seen      map[string][]byte          // first answer to every repeatable request
	sent      map[string]int             // requests sent, by class
}

// startService builds the fixture. corpus, when non-nil, is a Runner on
// store that already holds the Figure 1 matrix; otherwise the matrix is
// simulated into a fresh cache.
func startService(e *env, store *simcache.Store, corpus *experiments.Runner) (*service, error) {
	if corpus == nil {
		var err error
		if store, err = e.openStore("serve"); err != nil {
			return nil, err
		}
		corpus = e.newRunner(store)
	}
	specs := e.specs()
	corpus.Prewarm(specs, experiments.EvalFreqs...)
	s := &service{e: e, store: store, seen: map[string][]byte{}, sent: map[string]int{},
		truth: map[string]map[int64]int64{}, held: map[string]map[int64]int64{}}
	for _, sp := range specs {
		s.truth[sp.Name] = map[int64]int64{}
		for _, f := range experiments.EvalFreqs {
			s.truth[sp.Name][int64(f)] = int64(corpus.Truth(sp, f).Time)
		}
	}

	var err error
	if s.samples, err = surrogate.Scan(store); err != nil {
		return nil, err
	}
	start := time.Now()
	s.model = surrogate.Train(s.samples)
	s.trainDur = time.Since(start)

	// Held-out truths come from a memory-only Runner, so they never reach
	// the server's memo, its cache or its surrogate.
	s.heldFreqs = heldOutFreqs(e.seed, specs)
	heldRunner := e.newRunner(nil)
	var jobs []simJob
	for _, sp := range specs {
		for _, f := range s.heldFreqs[sp.Name] {
			jobs = append(jobs, simJob{spec: sp, freq: f})
		}
	}
	for _, j := range runJobs(heldRunner, jobs, e.nproc, nil, -1) {
		if s.held[j.job.spec.Name] == nil {
			s.held[j.job.spec.Name] = map[int64]int64{}
		}
		s.held[j.job.spec.Name][int64(j.job.freq)] = int64(j.res.Time)
	}

	s.runner = e.newRunner(store)
	s.reg = metrics.NewServerRegistry()
	srv, err := server.New(server.Config{Runner: s.runner, Workers: e.nproc, Metrics: s.reg, Surrogate: s.model})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- srv.Serve(ctx, ln) }()
	s.url = "http://" + ln.Addr().String() + "/v1/predict"
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     e.nproc,
		MaxIdleConnsPerHost: e.nproc,
		DisableCompression:  true,
	}}
	return s, nil
}

// stop drains the server and waits until it has returned.
func (s *service) stop() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// answer is one request's outcome as the client saw it.
type answer struct {
	req    plannedReq
	status int
	body   []byte
	err    error
	lat    time.Duration
}

// batchResult is one batch's latencies and the accuracy figures its
// answers yield.
type batchResult struct {
	plan        batchPlan
	wall        time.Duration
	answers     []answer
	tier0Errs   []float64          // |surrogate − held-out truth| / truth per answered target
	sampledErrs []float64          // |sampled − full| / full base time per pair
	depburst    map[string]float64 // |DEP+BURST rel_error| at 4 GHz per stock benchmark
}

// runBatch sends batch b through nproc closed-loop clients (each sends its
// next request only after the previous answer arrived) and checks every
// answer.
func (s *service) runBatch(b int, o *outcome, tr *tracer) *batchResult {
	plan := planBatch(s.e.seed, b, s.e.specs(), s.heldFreqs)
	answers := make([]answer, len(plan.reqs))
	root := tr.begin("bench.serve_batch", -1, -1)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.e.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.reqs) {
					return
				}
				id := tr.begin("client."+plan.reqs[i].class, root, i)
				answers[i] = s.send(plan.reqs[i])
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	for _, r := range plan.reqs {
		s.sent[r.class]++
	}
	br := &batchResult{plan: plan, wall: time.Since(start), answers: answers, depburst: map[string]float64{}}
	tr.end(root)
	s.check(plan, br, o)
	return br
}

func (s *service) send(req plannedReq) answer {
	a := answer{req: req}
	start := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(req.body))
	if err == nil {
		a.status = resp.StatusCode
		a.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	a.lat = time.Since(start)
	a.err = err
	return a
}

// check applies the serve-mixed correctness gates to every answer, in
// request order.
func (s *service) check(plan batchPlan, br *batchResult, o *outcome) {
	full := make([]*server.PredictResponse, len(plan.specs))
	type pending struct {
		a    answer
		resp *server.PredictResponse
	}
	var sampled []pending
	for _, a := range br.answers {
		what, resp := s.verify(a)
		if what == "" {
			switch a.req.class {
			case classCold:
				full[a.req.pair] = resp
			case classSampled:
				sampled = append(sampled, pending{a, resp})
				continue // checked against its pair below
			}
		}
		o.check(what == "", fmt.Sprintf("%s request %s: %s", a.req.class, a.req.body, what), s.e.log)
		if what == "" {
			s.score(a.req, resp, br)
		}
	}
	for _, p := range sampled {
		a, smp, ref := p.a, p.resp, full[p.a.req.pair]
		what := ""
		if ref == nil {
			what = "its full-detail pair failed"
		} else {
			rel := math.Abs(float64(smp.BaseTimePS-ref.BaseTimePS)) / float64(ref.BaseTimePS)
			br.sampledErrs = append(br.sampledErrs, rel)
			if rel > smp.Sampling.ErrorBound {
				what = fmt.Sprintf("base time off by %.4f, beyond its error bound %.4f", rel, smp.Sampling.ErrorBound)
			}
		}
		o.check(what == "", fmt.Sprintf("sampled request %s: %s", a.req.body, what), s.e.log)
	}
}

// verify returns why an answer is wrong ("" when it is right) and the
// decoded response.
func (s *service) verify(a answer) (string, *server.PredictResponse) {
	if a.err != nil {
		return a.err.Error(), nil
	}
	if a.status < 200 || a.status > 299 {
		return fmt.Sprintf("status %d: %s", a.status, a.body), nil
	}
	var resp server.PredictResponse
	if err := json.Unmarshal(a.body, &resp); err != nil {
		return "undecodable body: " + err.Error(), nil
	}
	switch tier := resp.Tier; a.req.class {
	case classTier0:
		if tier != server.TierSurrogate {
			return fmt.Sprintf("answered by tier %q, want the surrogate", tier), nil
		}
	case classMemo, classCold:
		if tier != "" || resp.Sampling != nil {
			return fmt.Sprintf("answered by tier %q (sampled %v), want full detail", tier, resp.Sampling != nil), nil
		}
	case classSampled:
		if tier != "" || resp.Sampling == nil {
			return fmt.Sprintf("answered by tier %q without a sampling report", tier), nil
		}
	}
	if a.req.class == classTier0 || a.req.class == classMemo {
		key := string(a.req.body)
		if first, ok := s.seen[key]; ok && !bytes.Equal(first, a.body) {
			return "repeated request answered differently", nil
		} else if !ok {
			s.seen[key] = a.body
		}
	}
	if a.req.class == classMemo {
		truth := s.truth[a.req.bench]
		if resp.BaseTimePS != truth[1000] {
			return fmt.Sprintf("base_time_ps %d, truth %d", resp.BaseTimePS, truth[1000]), nil
		}
		for _, p := range resp.Predictions {
			if p.ActualPS != truth[p.TargetMHz] {
				return fmt.Sprintf("actual_ps %d at %d MHz, truth %d", p.ActualPS, p.TargetMHz, truth[p.TargetMHz]), nil
			}
		}
	}
	if want := len(a.req.targets); a.req.class != classMemo && len(resp.Predictions) != want {
		return fmt.Sprintf("%d predictions, want %d", len(resp.Predictions), want), nil
	}
	return "", &resp
}

// score records the accuracy figures of a verified answer.
func (s *service) score(req plannedReq, resp *server.PredictResponse, br *batchResult) {
	switch req.class {
	case classTier0:
		for _, p := range resp.Predictions {
			truth := float64(s.held[req.bench][p.TargetMHz])
			br.tier0Errs = append(br.tier0Errs, math.Abs(float64(p.PredictedPS)-truth)/truth)
		}
	case classMemo:
		for _, p := range resp.Predictions {
			if p.Model == "dep+burst" && p.TargetMHz == 4000 && p.RelError != nil {
				br.depburst[req.bench] = math.Abs(*p.RelError)
			}
		}
	}
}

// classLatencies splits a batch's client latencies (ms) by request class.
func (br *batchResult) classLatencies() map[string][]float64 {
	out := map[string][]float64{}
	for _, a := range br.answers {
		out[a.req.class] = append(out[a.req.class], ms(a.lat))
	}
	return out
}

func (br *batchResult) latencies() []float64 {
	var lat []float64
	for _, a := range br.answers {
		lat = append(lat, ms(a.lat))
	}
	return lat
}

func meanPct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return 100 * s / float64(len(xs))
}

func maxPct(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return 100 * m
}

func serveMixed(e *env) (*outcome, error) {
	o := newOutcome()
	start := time.Now()
	s, err := startService(e, nil, nil)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()

	n := passes(e.seconds, serveBatchNominal, 1)
	var wall time.Duration
	var p50s, tails []float64
	var last *batchResult
	for b := 0; b < n; b++ {
		br := s.runBatch(b, o, nil)
		wall += br.wall
		lat := br.latencies()
		p50s = append(p50s, median(lat))
		t, pct := tail(lat)
		tails = append(tails, t)
		o.notes["tail"] = fmt.Sprintf("p%.1f of %d requests per batch", pct, len(lat))
		last = br
	}
	if err := s.stop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	o.notes["batches"] = n
	classP50 := map[string]float64{}
	for class, lat := range last.classLatencies() {
		classP50[class] = median(lat)
	}
	o.notes["class_p50_ms"] = classP50
	o.notes["tier0_err_pct"] = meanPct(last.tier0Errs)
	o.notes["sampled_err_pct"] = maxPct(last.sampledErrs)
	o.set("wall_s", wall.Seconds(), "s")
	o.set("p50_ms", median(p50s), "ms")
	o.set("tail_ms", median(tails), "ms")
	o.set("depburst_err_pct", depburstFromService(last, e), "%")
	o.finish([]float64{setup})
	return o, nil
}

// depburstFromService averages the per-benchmark DEP+BURST 4 GHz errors
// the memo answers carried: Figure 1's 4 GHz cell, through the service.
func depburstFromService(br *batchResult, e *env) float64 {
	var sum float64
	for _, sp := range e.specs() {
		sum += br.depburst[sp.Name]
	}
	return 100 * sum / float64(len(e.specs()))
}
