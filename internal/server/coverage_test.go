package server

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/simcache"
)

func TestModelForAllNames(t *testing.T) {
	for _, name := range modelNames {
		m, ok := modelFor(name)
		if !ok || m == nil {
			t.Errorf("modelFor(%q) failed", name)
		}
	}
	if _, ok := modelFor("oracle"); ok {
		t.Error("modelFor accepted an unknown name")
	}
}

func TestHandlerAccessor(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("Handler() healthz = %d", w.Code)
	}
}

func TestMetricsDisabled(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Metrics = nil })
	if w := get(t, s, "/v1/metrics"); w.Code != http.StatusNotFound {
		t.Fatalf("metrics with nil registry = %d, want 404", w.Code)
	}
}

func TestMetricsDiskCacheGauges(t *testing.T) {
	s, r := newTestServer(t, nil)
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.SetDiskCache(st)
	for _, path := range []string{"/v1/metrics", "/v1/metrics?format=prometheus"} {
		w := get(t, s, path)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, w.Code)
		}
		for _, g := range []string{"simcache_hits", "simcache_misses", "simcache_put_errors"} {
			if !strings.Contains(w.Body.String(), g) {
				t.Errorf("%s missing gauge %q: %s", path, g, w.Body)
			}
		}
	}
}

// TestResolveSpecStockFallback: a benchmark absent from the server's suite
// still resolves through the stock catalogue.
func TestResolveSpecStockFallback(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if _, err := dacapo.ByName("lusearch"); err != nil {
		t.Skip("lusearch not in the stock catalogue")
	}
	spec, err := s.resolveSpec(&PredictRequest{Bench: "lusearch"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "lusearch" {
		t.Fatalf("resolved %q", spec.Name)
	}
}

// TestPredictCancelledWhileQueued: a leader parked on the worker queue whose
// client disconnects is released promptly with the cancellation status, and
// its queue slot is returned.
func TestPredictCancelledWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Workers = 1; c.MaxQueue = 4 })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the only worker slot with slow cold work
		defer wg.Done()
		post(t, s, "/v1/predict", `{"bench":"pmd.b","base_mhz":1000,"targets_mhz":[4000]}`)
	}()
	waitFor(t, func() bool { return len(s.sem) == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/predict",
		strings.NewReader(`{"bench":"pmd.b","base_mhz":1100,"targets_mhz":[4000]}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(w, req)
		close(done)
	}()
	waitFor(t, func() bool { return s.waiting.Load() == 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request not released after cancel")
	}
	if w.Code != 499 {
		t.Fatalf("cancelled queued request = %d, want 499", w.Code)
	}
	waitFor(t, func() bool { return s.waiting.Load() == 0 })
	wg.Wait()
}

// TestPredictFollowerCancelled: a request joined onto another caller's flight
// whose own client disconnects is released without waiting for the leader.
func TestPredictFollowerCancelled(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.Workers = 1 })
	body := `{"bench":"pmd.b","base_mhz":1200,"targets_mhz":[4000]}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: slow cold simulation
		defer wg.Done()
		post(t, s, "/v1/predict", body)
	}()
	waitFor(t, func() bool {
		s.flights.Lock()
		defer s.flights.Unlock()
		return len(s.flights.m) == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(w, req)
		close(done)
	}()
	waitFor(t, func() bool { return s.cfg.Metrics.Coalesced() >= 1 })
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follower not released after its own cancel")
	}
	if w.Code != 499 {
		t.Fatalf("cancelled follower = %d, want 499", w.Code)
	}
	wg.Wait()
}

// TestServeListenerError: Serve surfaces an accept-loop failure instead of
// hanging.
func TestServeListenerError(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // accept will fail immediately
	if err := s.Serve(context.Background(), ln); err == nil {
		t.Fatal("Serve on a closed listener returned nil")
	}
}

// TestRunLoadGETAndNetErrors covers the generator's defaulting (GET when no
// body, custom path) and its transport-failure accounting.
func TestRunLoadGETAndNetErrors(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Path:     "/healthz",
		RPS:      200,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK != rep.Requests {
		t.Fatalf("healthz load: %+v", rep)
	}

	if _, err := RunLoad(context.Background(), LoadOptions{}); err == nil {
		t.Fatal("RunLoad without BaseURL returned nil error")
	}

	dead, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        "http://127.0.0.1:1",
		RPS:            100,
		Duration:       100 * time.Millisecond,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dead.NetErrors == 0 {
		t.Fatalf("no transport errors against a dead endpoint: %+v", dead)
	}
}
