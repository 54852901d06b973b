package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// ServerFormatVersion guards consumers of the serving-layer metrics document
// against incompatible builds, exactly like FormatVersion does for the
// per-run document. Bump on any breaking schema change.
const ServerFormatVersion = 1

// Default latency bucket bounds in nanoseconds: 50µs to 10s, resolving both
// the warm-cache fast path (sub-10ms contract) and cold full simulations.
var serverLatBoundsNS = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
}

// routeStats is one route's request tally: a latency histogram plus
// per-status-code counters.
type routeStats struct {
	lat    Histogram
	status map[int]uint64
}

// ServerRegistry collects the serving layer's telemetry: per-route request
// latency histograms, per-status-code counters, the backpressure tally, and
// the coalesced count the server copies from the Runner memo at scrape time.
// Unlike the per-run
// Registry — which lives inside one single-threaded simulation — the server
// registry is shared by concurrent HTTP handlers, so every method locks.
//
// A nil *ServerRegistry disables every method, mirroring the Registry
// convention, so handler code never branches on whether metrics are wired.
type ServerRegistry struct {
	mu sync.Mutex
	//depburst:guardedby mu
	routes map[string]*routeStats
	//depburst:guardedby mu
	tiers map[string]*Histogram
	//depburst:guardedby mu
	coalesced uint64
	//depburst:guardedby mu
	rejected uint64
	//depburst:guardedby mu
	gauges map[string]float64
}

// NewServerRegistry returns an enabled serving-layer registry.
func NewServerRegistry() *ServerRegistry {
	return &ServerRegistry{
		routes: make(map[string]*routeStats),
		tiers:  make(map[string]*Histogram),
		gauges: make(map[string]float64),
	}
}

// ObserveRequest records one completed request on a route (e.g.
// "POST /v1/predict"): its HTTP status and wall latency in nanoseconds.
func (s *ServerRegistry) ObserveRequest(route string, status int, latNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.routes[route]
	if !ok {
		rs = &routeStats{
			lat:    newHistogram(serverLatBoundsNS),
			status: make(map[int]uint64),
		}
		s.routes[route] = rs
	}
	rs.lat.Observe(latNS)
	rs.status[status]++
}

// ObserveTier records one predict computation served by the named tier
// ("surrogate", "sampled", "full") and its wall latency in nanoseconds.
// Tier counts split serving volume across the prediction ladder; the
// per-tier latency histograms are what the surrogate's speedup contract is
// measured against.
func (s *ServerRegistry) ObserveTier(tier string, latNS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.tiers[tier]
	if !ok {
		h = new(Histogram)
		*h = newHistogram(serverLatBoundsNS)
		s.tiers[tier] = h
	}
	h.Observe(latNS)
}

// TierCount returns how many computations the named tier has served.
func (s *ServerRegistry) TierCount(tier string) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.tiers[tier]; ok {
		return h.n
	}
	return 0
}

// SetCoalesced publishes how many callers waited on another caller's
// identical in-flight run instead of starting their own. The Runner memo
// keeps the count; the server sets it when a scrape arrives, like a gauge.
func (s *ServerRegistry) SetCoalesced(n uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.coalesced = n
	s.mu.Unlock()
}

// IncRejected records one request refused with 429 by the backpressure gate.
func (s *ServerRegistry) IncRejected() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// Coalesced returns the last published coalesced count.
func (s *ServerRegistry) Coalesced() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coalesced
}

// Rejected returns the backpressure-rejection tally.
func (s *ServerRegistry) Rejected() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// SetGauge publishes a point-in-time value (queue depth, simulations
// executed, cache size) under the given name. The server refreshes gauges
// when a scrape arrives.
func (s *ServerRegistry) SetGauge(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gauges[name] = v
	s.mu.Unlock()
}

// Quantile estimates the q-quantile (0 < q <= 1) from the histogram's
// buckets: the upper bound of the bucket the quantile falls in (the overflow
// bucket reports the observed max). The estimate is deterministic and
// monotone in q, which is all the latency contract tests need.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// ServerDocument is the exported serving-metrics schema. Field names are a
// public contract; rename only with a ServerFormatVersion bump.
type ServerDocument struct {
	Version   int        `json:"version"`
	Coalesced uint64     `json:"coalesced"`
	Rejected  uint64     `json:"rejected"`
	Gauges    []GaugeDoc `json:"gauges"`
	Routes    []RouteDoc `json:"routes"`
	// Tiers is additive (serving-tier split of predict computations); it is
	// absent until the first ObserveTier call, so pre-tier consumers see an
	// unchanged document.
	Tiers []TierDoc `json:"tiers,omitempty"`
}

// GaugeDoc is one published point-in-time value.
type GaugeDoc struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// RouteDoc is one route's exported tally.
type RouteDoc struct {
	Route    string      `json:"route"`
	Count    uint64      `json:"count"`
	SumNS    int64       `json:"sum_ns"`
	MinNS    int64       `json:"min_ns"`
	MaxNS    int64       `json:"max_ns"`
	P50NS    int64       `json:"p50_ns"`
	P90NS    int64       `json:"p90_ns"`
	P99NS    int64       `json:"p99_ns"`
	BoundsNS []int64     `json:"bounds_ns"`
	Counts   []uint64    `json:"counts"`
	Status   []StatusDoc `json:"status"`
}

// StatusDoc is one status code's request count on a route.
type StatusDoc struct {
	Code  int    `json:"code"`
	Count uint64 `json:"count"`
}

// TierDoc is one serving tier's exported tally.
type TierDoc struct {
	Tier  string `json:"tier"`
	Count uint64 `json:"count"`
	SumNS int64  `json:"sum_ns"`
	MinNS int64  `json:"min_ns"`
	MaxNS int64  `json:"max_ns"`
	P50NS int64  `json:"p50_ns"`
	P99NS int64  `json:"p99_ns"`
}

// Export builds the registry's document. Routes and status codes are sorted,
// so the document is deterministic for a given request history.
func (s *ServerRegistry) Export() ServerDocument {
	doc := ServerDocument{Version: ServerFormatVersion}
	if s == nil {
		return doc
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	doc.Coalesced = s.coalesced
	doc.Rejected = s.rejected

	names := make([]string, 0, len(s.gauges))
	for n := range s.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	doc.Gauges = make([]GaugeDoc, 0, len(names))
	for _, n := range names {
		doc.Gauges = append(doc.Gauges, GaugeDoc{Name: n, Value: s.gauges[n]})
	}

	routes := make([]string, 0, len(s.routes))
	for r := range s.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	doc.Routes = make([]RouteDoc, 0, len(routes))
	for _, route := range routes {
		rs := s.routes[route]
		rd := RouteDoc{
			Route:    route,
			Count:    rs.lat.n,
			SumNS:    rs.lat.sum,
			MinNS:    rs.lat.min,
			MaxNS:    rs.lat.max,
			P50NS:    rs.lat.Quantile(0.50),
			P90NS:    rs.lat.Quantile(0.90),
			P99NS:    rs.lat.Quantile(0.99),
			BoundsNS: rs.lat.bounds,
			Counts:   rs.lat.counts,
		}
		codes := make([]int, 0, len(rs.status))
		for c := range rs.status {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			rd.Status = append(rd.Status, StatusDoc{Code: c, Count: rs.status[c]})
		}
		doc.Routes = append(doc.Routes, rd)
	}

	tiers := make([]string, 0, len(s.tiers))
	for t := range s.tiers {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		h := s.tiers[tier]
		doc.Tiers = append(doc.Tiers, TierDoc{
			Tier:  tier,
			Count: h.n,
			SumNS: h.sum,
			MinNS: h.min,
			MaxNS: h.max,
			P50NS: h.Quantile(0.50),
			P99NS: h.Quantile(0.99),
		})
	}
	return doc
}

// WriteJSON writes the indented serving-metrics document.
func (s *ServerRegistry) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Export()); err != nil {
		return err
	}
	return bw.Flush()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): cumulative le buckets, _sum/_count in seconds, and
// the coalesced/rejected counters. Output is deterministic (sorted
// routes, codes and gauges).
func (s *ServerRegistry) WritePrometheus(w io.Writer) error {
	doc := s.Export()
	bw := bufio.NewWriter(w)

	fmt.Fprintf(bw, "# HELP depburst_http_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(bw, "# TYPE depburst_http_requests_total counter\n")
	for _, r := range doc.Routes {
		for _, st := range r.Status {
			fmt.Fprintf(bw, "depburst_http_requests_total{route=%q,code=\"%d\"} %d\n", r.Route, st.Code, st.Count)
		}
	}

	fmt.Fprintf(bw, "# HELP depburst_http_request_duration_seconds Request wall latency.\n")
	fmt.Fprintf(bw, "# TYPE depburst_http_request_duration_seconds histogram\n")
	for _, r := range doc.Routes {
		var cum uint64
		for i, bound := range r.BoundsNS {
			cum += r.Counts[i]
			fmt.Fprintf(bw, "depburst_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n",
				r.Route, float64(bound)/1e9, cum)
		}
		fmt.Fprintf(bw, "depburst_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", r.Route, r.Count)
		fmt.Fprintf(bw, "depburst_http_request_duration_seconds_sum{route=%q} %g\n", r.Route, float64(r.SumNS)/1e9)
		fmt.Fprintf(bw, "depburst_http_request_duration_seconds_count{route=%q} %d\n", r.Route, r.Count)
	}

	fmt.Fprintf(bw, "# HELP depburst_http_coalesced_total Callers that waited on an identical in-flight run instead of starting their own.\n")
	fmt.Fprintf(bw, "# TYPE depburst_http_coalesced_total counter\n")
	fmt.Fprintf(bw, "depburst_http_coalesced_total %d\n", doc.Coalesced)

	fmt.Fprintf(bw, "# HELP depburst_http_rejected_total Requests refused by the backpressure gate.\n")
	fmt.Fprintf(bw, "# TYPE depburst_http_rejected_total counter\n")
	fmt.Fprintf(bw, "depburst_http_rejected_total %d\n", doc.Rejected)

	if len(doc.Tiers) > 0 {
		fmt.Fprintf(bw, "# HELP depburst_predict_tier_total Predict computations by serving tier.\n")
		fmt.Fprintf(bw, "# TYPE depburst_predict_tier_total counter\n")
		for _, td := range doc.Tiers {
			fmt.Fprintf(bw, "depburst_predict_tier_total{tier=%q} %d\n", td.Tier, td.Count)
		}
		fmt.Fprintf(bw, "# HELP depburst_predict_tier_duration_seconds Predict computation wall latency, by serving tier.\n")
		fmt.Fprintf(bw, "# TYPE depburst_predict_tier_duration_seconds summary\n")
		for _, td := range doc.Tiers {
			fmt.Fprintf(bw, "depburst_predict_tier_duration_seconds{tier=%q,quantile=\"0.5\"} %g\n", td.Tier, float64(td.P50NS)/1e9)
			fmt.Fprintf(bw, "depburst_predict_tier_duration_seconds{tier=%q,quantile=\"0.99\"} %g\n", td.Tier, float64(td.P99NS)/1e9)
			fmt.Fprintf(bw, "depburst_predict_tier_duration_seconds_sum{tier=%q} %g\n", td.Tier, float64(td.SumNS)/1e9)
			fmt.Fprintf(bw, "depburst_predict_tier_duration_seconds_count{tier=%q} %d\n", td.Tier, td.Count)
		}
	}

	for _, g := range doc.Gauges {
		fmt.Fprintf(bw, "# TYPE depburst_%s gauge\n", g.Name)
		fmt.Fprintf(bw, "depburst_%s %g\n", g.Name, g.Value)
	}
	return bw.Flush()
}
