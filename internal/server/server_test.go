package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/simcache"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the checked-in golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// testSuite is the tiny benchmark set the e2e wall runs on: the fast scaled
// pmd plus a second variant so multi-benchmark experiment tables have rows.
func testSuite(t testing.TB) []dacapo.Spec {
	t.Helper()
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	b := spec.Scaled(1.5)
	b.Name = "pmd.b"
	b.Memory = false
	return []dacapo.Spec{spec, b}
}

// newTestServer assembles a server over a fresh 2-worker Runner with the
// tiny suite. mutate adjusts the config before assembly.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *experiments.Runner) {
	t.Helper()
	r := experiments.NewRunnerWorkers(2)
	r.SetSuite(testSuite(t))
	cfg := Config{
		Runner:  r,
		Metrics: metrics.NewServerRegistry(),
		Step:    1500,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

// predictBody is the canonical e2e request.
const predictBody = `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000],"models":["dep+burst","mcrit"],"actual":true}`

func post(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func get(t testing.TB, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestPredictGolden(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := post(t, s, "/v1/predict", predictBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type %q", ct)
	}
	checkGolden(t, "predict.golden.json", w.Body.Bytes())
}

func TestExperimentGoldens(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, tc := range []struct{ name, path string }{
		{"fig1", "/v1/experiments/fig1"},
		{"energy", "/v1/experiments/energy"},
		{"fig7", "/v1/experiments/fig7?step=1500"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := get(t, s, tc.path)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			checkGolden(t, "experiment_"+tc.name+".golden.json", w.Body.Bytes())
		})
	}
}

// TestPredictColdWarmIdentical: a response computed by live simulation and
// the same response replayed from the persistent disk cache by a second
// server process must be byte-identical.
func TestPredictColdWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		st, err := simcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, r := newTestServer(t, nil)
		r.SetDiskCache(st)
		return s
	}
	cold := post(t, open(), "/v1/predict", predictBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body)
	}
	warmSrv := open() // fresh memo, warm disk
	warm := post(t, warmSrv, "/v1/predict", predictBody)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm status %d: %s", warm.Code, warm.Body)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("cold and warm responses differ:\ncold: %s\nwarm: %s", cold.Body, warm.Body)
	}
	// And a memo-warm repeat on the same server too.
	again := post(t, warmSrv, "/v1/predict", predictBody)
	if !bytes.Equal(cold.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("memo-warm response differs from cold")
	}
}

// TestPredictCoalescing is the batching contract: 100 concurrent identical
// cold requests must produce exactly ONE simulation, 100 identical 200
// responses, and a non-zero coalesced counter.
func TestPredictCoalescing(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Workers = 4; c.MaxQueue = 200 })
	body := `{"bench":"pmd.scale","targets_mhz":[4000]}` // base run only: one simulation
	const n = 100
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/predict", body)
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs", i)
		}
	}
	if sims := r.Simulations(); sims != 1 {
		t.Fatalf("simulations = %d, want exactly 1 for 100 identical requests", sims)
	}
	if s.cfg.Metrics.Coalesced() == 0 {
		t.Error("coalesced counter is zero: requests were not merged")
	}
}

// TestPredictValidation walks the strict-decoding contract: every malformed
// or out-of-bounds request is a 400 with a JSON error envelope.
func TestPredictValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `hello`},
		{"unknown field", `{"bench":"pmd.scale","targets_mhz":[4000],"bogus":1}`},
		{"trailing data", `{"bench":"pmd.scale","targets_mhz":[4000]} {}`},
		{"no workload", `{"targets_mhz":[4000]}`},
		{"both workloads", `{"bench":"pmd.scale","spec":{"Name":"x"},"targets_mhz":[4000]}`},
		{"no targets", `{"bench":"pmd.scale"}`},
		{"target too low", `{"bench":"pmd.scale","targets_mhz":[50]}`},
		{"target too high", `{"bench":"pmd.scale","targets_mhz":[50000]}`},
		{"base out of range", `{"bench":"pmd.scale","base_mhz":7,"targets_mhz":[4000]}`},
		{"unknown model", `{"bench":"pmd.scale","targets_mhz":[4000],"models":["oracle"]}`},
		{"invalid spec", `{"spec":{"Name":"x"},"targets_mhz":[4000]}`},
		{"unknown bench", `{"bench":"nope","targets_mhz":[4000]}`},
		{"too many targets", tooManyTargets()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/predict", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", w.Code, w.Body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", w.Body)
			}
		})
	}
}

func tooManyTargets() string {
	var sb strings.Builder
	sb.WriteString(`{"bench":"pmd.scale","targets_mhz":[`)
	for i := 0; i < maxTargets+1; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", 1000+i)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// TestPredictBodyLimit: a body beyond MaxBody is refused, not buffered.
func TestPredictBodyLimit(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBody = 256 })
	big := `{"bench":"pmd.scale","targets_mhz":[4000],"models":["` + strings.Repeat("x", 1024) + `"]}`
	w := post(t, s, "/v1/predict", big)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for oversized body", w.Code)
	}
}

// TestPredictBackpressure saturates a 1-worker, 1-queue-slot server with
// slow cold requests and asserts the third distinct request is refused with
// 429 + Retry-After instead of queueing unboundedly.
func TestPredictBackpressure(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Workers = 1; c.MaxQueue = 1 })
	reqBody := func(f int) string {
		return fmt.Sprintf(`{"bench":"pmd.b","base_mhz":%d,"targets_mhz":[4000]}`, f)
	}
	var wg sync.WaitGroup
	launch := func(body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, s, "/v1/predict", body)
		}()
	}
	// Occupy the worker slot, then the queue slot, with distinct slow work.
	launch(reqBody(1000))
	waitFor(t, func() bool { return len(s.sem) == 1 })
	launch(reqBody(1100))
	waitFor(t, func() bool { return s.waiting.Load() == 1 })

	w := post(t, s, "/v1/predict", reqBody(1200))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.cfg.Metrics.Rejected() == 0 {
		t.Error("rejected counter is zero")
	}
	wg.Wait() // drain the slow requests before the runner outlives the test
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in 5s")
}

// TestExperimentCancellation: a cancelled /v1/experiments/fig1 request stops
// spawning simulations promptly and leaks no goroutines.
func TestExperimentCancellation(t *testing.T) {
	s, r := newTestServer(t, nil)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments/fig1", nil).WithContext(ctx)
	w := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(w, req)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled experiment took %v; want prompt return", elapsed)
	}
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled request returned 200")
	}
	simsAtReturn := r.Simulations()
	time.Sleep(50 * time.Millisecond)
	if n := r.Simulations(); n != simsAtReturn {
		t.Fatalf("simulations kept spawning after cancel: %d -> %d", simsAtReturn, n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestRequestTimeout: a server-side deadline turns an over-budget request
// into 504 instead of hanging.
func TestRequestTimeout(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Timeout = 5 * time.Millisecond })
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"bench":"pmd.b","targets_mhz":[4000]}`))
	s.ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", w.Code, w.Body)
	}
}

// TestWarmPredictLatency is the latency contract: with the memo warm, a
// predict round-trip stays under 10ms (best of three, to shrug off
// scheduler noise).
func TestWarmPredictLatency(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := post(t, s, "/v1/predict", predictBody); w.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d %s", w.Code, w.Body)
	}
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		w := post(t, s, "/v1/predict", predictBody)
		if d := time.Since(start); d < best {
			best = d
		}
		if w.Code != http.StatusOK {
			t.Fatalf("warm request failed: %d", w.Code)
		}
	}
	if best > 10*time.Millisecond {
		t.Errorf("warm predict best-of-3 = %v, want < 10ms", best)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz = %d", w.Code)
	}
	if w := get(t, s, "/readyz"); w.Code != http.StatusOK {
		t.Errorf("readyz = %d", w.Code)
	}
	s.draining.Store(true)
	if w := get(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", w.Code)
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200", w.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	post(t, s, "/v1/predict", `{"bench":"pmd.scale","targets_mhz":[4000]}`)

	w := get(t, s, "/v1/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	var doc metrics.ServerDocument
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics is not the server document: %v", err)
	}
	found := false
	for _, r := range doc.Routes {
		if r.Route == "POST /v1/predict" && r.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("predict route missing from metrics: %s", w.Body)
	}
	sims := false
	for _, g := range doc.Gauges {
		if g.Name == "simulations_total" && g.Value >= 1 {
			sims = true
		}
	}
	if !sims {
		t.Errorf("simulations_total gauge missing: %s", w.Body)
	}

	p := get(t, s, "/v1/metrics?format=prometheus")
	if p.Code != http.StatusOK {
		t.Fatalf("prometheus status %d", p.Code)
	}
	if !strings.Contains(p.Body.String(), "depburst_http_requests_total") {
		t.Errorf("prometheus exposition missing counters:\n%s", p.Body)
	}
}

// TestMethodNotAllowed: the method-qualified mux refuses mismatched verbs.
func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if w := get(t, s, "/v1/predict"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict = %d, want 405", w.Code)
	}
	if w := post(t, s, "/healthz", ""); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz = %d, want 405", w.Code)
	}
}

// TestExperimentBadStep: an unparsable or out-of-range ?step= is a 400.
func TestExperimentBadStep(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, q := range []string{"step=abc", "step=1", "step=99999"} {
		if w := get(t, s, "/v1/experiments/fig7?"+q); w.Code != http.StatusBadRequest {
			t.Errorf("?%s = %d, want 400", q, w.Code)
		}
	}
}

// TestServeGracefulDrain boots the server on a real listener, parks a slow
// request in flight, cancels the serve context, and asserts (a) readyz flips
// to 503, (b) the in-flight request still completes, (c) Serve returns
// within the drain budget.
func TestServeGracefulDrain(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.DrainTimeout = 15 * time.Second })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Park a slow cold request.
	slow := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict", "application/json",
			strings.NewReader(`{"bench":"pmd.b","base_mhz":1300,"targets_mhz":[4000]}`))
		if err != nil {
			slow <- nil
			return
		}
		slow <- resp
	}()
	waitFor(t, func() bool { return len(s.sem) == 1 })

	cancel() // SIGTERM analogue
	waitFor(t, func() bool { return s.draining.Load() })

	select {
	case resp := <-slow:
		if resp == nil {
			t.Fatal("in-flight request was dropped during drain")
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request finished %d during drain", resp.StatusCode)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within the drain budget")
	}
}

// TestPredictSchemaStability pins the /v1 response keys: renaming any is a
// breaking change that requires a /v2 path per the schema policy.
func TestPredictSchemaStability(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := post(t, s, "/v1/predict", predictBody)
	var doc map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bench", "base_mhz", "base_time_ps", "predictions"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("response lost key %q", key)
		}
	}
	preds := doc["predictions"].([]any)
	p0 := preds[0].(map[string]any)
	for _, key := range []string{"model", "target_mhz", "predicted_ps", "actual_ps", "rel_error"} {
		if _, ok := p0[key]; !ok {
			t.Errorf("prediction lost key %q", key)
		}
	}
}

// TestPredictEmbeddedSpec: a request may carry a full benchmark definition
// instead of a stock name.
func TestPredictEmbeddedSpec(t *testing.T) {
	s, _ := newTestServer(t, nil)
	spec := testSuite(t)[0]
	spec.Name = "custom"
	sb, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"spec":%s,"targets_mhz":[4000]}`, sb)
	w := post(t, s, "/v1/predict", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bench != "custom" || len(resp.Predictions) != 1 {
		t.Fatalf("unexpected response: %+v", resp)
	}
}

// TestPredictEmbeddedSpecDoesNotAlias: an embedded spec that reuses a stock
// benchmark's name with different parameters is different work. Its
// response must be the one a fresh server gives for that spec, never the
// memoised stock run.
func TestPredictEmbeddedSpecDoesNotAlias(t *testing.T) {
	spec := testSuite(t)[0]
	spec.Items /= 2
	sb, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	alias := fmt.Sprintf(`{"spec":%s,"targets_mhz":[2000]}`, sb)
	basePS := func(s *Server, body string) int64 {
		t.Helper()
		w := post(t, s, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		return decodeResponse(t, w.Body.Bytes()).BaseTimePS
	}

	s, _ := newTestServer(t, nil)
	stock := basePS(s, `{"bench":"pmd.scale","targets_mhz":[2000]}`)
	got := basePS(s, alias)
	fresh, _ := newTestServer(t, nil)
	want := basePS(fresh, alias)
	if got != want {
		t.Errorf("aliased spec served base_time_ps %d, a fresh server gives %d", got, want)
	}
	if got == stock {
		t.Errorf("aliased spec served the stock run's base_time_ps %d", stock)
	}
}

// TestRunLoad exercises the load generator against a warm server and checks
// the report's accounting.
func TestRunLoad(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := `{"bench":"pmd.scale","targets_mhz":[4000]}`
	if w := post(t, s, "/v1/predict", body); w.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d", w.Code)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Body:     []byte(body),
		RPS:      100,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK != rep.Requests {
		t.Fatalf("load report: %+v", rep)
	}
	if rep.Errors5xx != 0 || rep.NetErrors != 0 {
		t.Fatalf("errors under warm load: %+v", rep)
	}
	if rep.P99Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("bogus quantiles: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"p99_ms"`) {
		t.Fatalf("report JSON missing fields: %s", buf.String())
	}
}

// TestNewValidation: missing Runner is an assembly error; defaults apply.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Runner")
	}
	s, _ := newTestServer(t, nil)
	if s.cfg.Workers != 2 || s.cfg.MaxQueue != 16 || s.cfg.MaxBody != 1<<20 {
		t.Fatalf("defaults not applied: %+v", s.cfg)
	}
}
