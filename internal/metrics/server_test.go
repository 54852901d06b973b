package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// fixtureServerRegistry is the shared synthetic fixture for the serving-
// metrics golden and schema tests.
func fixtureServerRegistry() *ServerRegistry {
	s := NewServerRegistry()
	s.ObserveRequest("POST /v1/predict", 200, 800_000)    // warm hit, 0.8ms
	s.ObserveRequest("POST /v1/predict", 200, 45_000_000) // cold run, 45ms
	s.ObserveRequest("POST /v1/predict", 400, 120_000)    // bad request
	s.ObserveRequest("GET /v1/experiments/fig1", 200, 2_100_000_000)
	s.ObserveRequest("GET /healthz", 200, 30_000)
	s.SetCoalesced(2)
	s.IncRejected()
	s.ObserveTier("surrogate", 90_000)
	s.ObserveTier("surrogate", 140_000)
	s.ObserveTier("full", 45_000_000)
	s.SetGauge("simulations_total", 7)
	s.SetGauge("queue_depth", 0)
	return s
}

func TestServerRegistryNilDisabled(t *testing.T) {
	var s *ServerRegistry
	s.ObserveRequest("GET /healthz", 200, 1)
	s.SetCoalesced(1)
	s.IncRejected()
	s.ObserveTier("surrogate", 1)
	s.SetGauge("x", 1)
	if s.Coalesced() != 0 || s.Rejected() != 0 || s.TierCount("surrogate") != 0 {
		t.Fatal("nil registry reported non-zero counters")
	}
	doc := s.Export()
	if doc.Version != ServerFormatVersion || len(doc.Routes) != 0 {
		t.Fatalf("nil registry exported %+v", doc)
	}
}

func TestServerRegistryCounters(t *testing.T) {
	s := fixtureServerRegistry()
	if got := s.Coalesced(); got != 2 {
		t.Errorf("coalesced = %d, want 2", got)
	}
	if got := s.Rejected(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	doc := s.Export()
	if len(doc.Routes) != 3 {
		t.Fatalf("routes = %d, want 3", len(doc.Routes))
	}
	// Sorted by route name: experiments, healthz, predict.
	if doc.Routes[2].Route != "POST /v1/predict" {
		t.Fatalf("route order wrong: %q", doc.Routes[2].Route)
	}
	pr := doc.Routes[2]
	if pr.Count != 3 || pr.MinNS != 120_000 || pr.MaxNS != 45_000_000 {
		t.Errorf("predict stats wrong: %+v", pr)
	}
	if len(pr.Status) != 2 || pr.Status[0].Code != 200 || pr.Status[0].Count != 2 ||
		pr.Status[1].Code != 400 || pr.Status[1].Count != 1 {
		t.Errorf("predict status split wrong: %+v", pr.Status)
	}
	// Tiers are sorted by name: full, surrogate.
	if len(doc.Tiers) != 2 || doc.Tiers[0].Tier != "full" || doc.Tiers[1].Tier != "surrogate" {
		t.Fatalf("tier split wrong: %+v", doc.Tiers)
	}
	if sg := doc.Tiers[1]; sg.Count != 2 || sg.MinNS != 90_000 || sg.MaxNS != 140_000 {
		t.Errorf("surrogate tier stats wrong: %+v", sg)
	}
	if got := s.TierCount("surrogate"); got != 2 {
		t.Errorf("TierCount(surrogate) = %d, want 2", got)
	}
	if got := s.TierCount("sampled"); got != 0 {
		t.Errorf("TierCount(sampled) = %d, want 0", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	for _, v := range []int64{1, 2, 3, 12, 25} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10 (bucket upper bound)", got)
	}
	if got := h.Quantile(0.99); got != 30 {
		t.Errorf("p99 = %d, want 30", got)
	}
	h.Observe(1_000) // overflow bucket reports the observed max
	if got := h.Quantile(1.0); got != 1_000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	// Monotone in q.
	prev := int64(-1)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1.0} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestServerGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureServerRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "server.golden.json", buf.Bytes())

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := fixtureServerRegistry().WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("server document is not deterministic")
	}
}

func TestServerGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureServerRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "server.golden.prom", buf.Bytes())
}

// TestPrometheusBucketsCumulative: le buckets must be cumulative and end at
// +Inf equal to the count — the exposition-format invariant scrapers check.
func TestPrometheusBucketsCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureServerRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `le="+Inf"} 3`) {
		t.Errorf("missing cumulative +Inf bucket for predict route:\n%s", out)
	}
	if !strings.Contains(out, "depburst_http_coalesced_total 2") {
		t.Error("missing coalesced counter")
	}
	if !strings.Contains(out, "depburst_http_rejected_total 1") {
		t.Error("missing rejected counter")
	}
	if !strings.Contains(out, "depburst_simulations_total 7") {
		t.Error("missing simulations gauge")
	}
	// Cumulative monotonicity across the predict route's buckets.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `depburst_http_request_duration_seconds_bucket{route="POST /v1/predict"`) {
			continue
		}
		var v int64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("unparsable bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative: %d after %d in %q", v, prev, line)
		}
		prev = v
	}
}

// fmtSscan pulls the trailing integer off a Prometheus sample line.
func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	return 1, json.Unmarshal([]byte(line[i+1:]), v)
}

// TestServerSchemaStability pins the exported field names: renaming any of
// them is a breaking change that requires a ServerFormatVersion bump and a
// deliberate update here.
func TestServerSchemaStability(t *testing.T) {
	var buf bytes.Buffer
	if err := fixtureServerRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"version", "coalesced", "rejected", "gauges", "routes", "tiers"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document lost key %q", key)
		}
	}
	tiers := doc["tiers"].([]any)
	t0 := tiers[0].(map[string]any)
	for _, key := range []string{"tier", "count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"} {
		if _, ok := t0[key]; !ok {
			t.Errorf("tier block lost key %q", key)
		}
	}
	routes := doc["routes"].([]any)
	r0 := routes[0].(map[string]any)
	for _, key := range []string{"route", "count", "sum_ns", "min_ns", "max_ns",
		"p50_ns", "p90_ns", "p99_ns", "bounds_ns", "counts", "status"} {
		if _, ok := r0[key]; !ok {
			t.Errorf("route block lost key %q", key)
		}
	}
}

// TestServerRegistryConcurrent hammers the registry from many goroutines;
// run under -race this is the data-race guard for the shared handler path.
func TestServerRegistryConcurrent(t *testing.T) {
	s := NewServerRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s.ObserveRequest("POST /v1/predict", 200, int64(j)*1000)
				s.SetCoalesced(uint64(j))
				s.IncRejected()
				s.SetGauge("queue_depth", float64(j))
			}
		}(i)
	}
	wg.Wait()
	doc := s.Export()
	if doc.Routes[0].Count != 8*200 {
		t.Fatalf("count = %d, want %d", doc.Routes[0].Count, 8*200)
	}
	if s.Coalesced() != 199 || s.Rejected() != 8*200 {
		t.Fatal("counter totals wrong under concurrency")
	}
}
