package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadOptions configures one load run against a live server.
type LoadOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// Path is the endpoint to hit (default "/v1/predict").
	Path string
	// Method defaults to POST when Body is set, GET otherwise.
	Method string
	// Body is sent on every request (a predict request, typically).
	Body []byte
	// RPS is the open-loop arrival rate (default 50).
	RPS int
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// RequestTimeout bounds one request (default 30s).
	RequestTimeout time.Duration
}

// LoadReport summarises a load run. The latency quantiles are computed from
// the full sample set, not a histogram sketch.
type LoadReport struct {
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`         // 2xx
	Errors4xx int     `json:"errors_4xx"` // includes 429 rejections
	Errors5xx int     `json:"errors_5xx"`
	NetErrors int     `json:"net_errors"` // transport failures, timeouts
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	WallMs    float64 `json:"wall_ms"`
	RPS       float64 `json:"rps"` // achieved completion rate
}

// RunLoad drives the server open-loop at the configured rate until the
// duration (or ctx) expires, then reports counts and latency quantiles.
func RunLoad(ctx context.Context, o LoadOptions) (*LoadReport, error) {
	if o.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL is required")
	}
	if o.Path == "" {
		o.Path = "/v1/predict"
	}
	if o.Method == "" {
		if len(o.Body) > 0 {
			o.Method = http.MethodPost
		} else {
			o.Method = http.MethodGet
		}
	}
	if o.RPS <= 0 {
		o.RPS = 50
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	interval := time.Second / time.Duration(o.RPS)
	if interval <= 0 {
		return nil, fmt.Errorf("load: RPS %d exceeds one request per nanosecond", o.RPS)
	}
	client := &http.Client{Timeout: o.RequestTimeout}
	url := o.BaseURL + o.Path

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       LoadReport
	)
	shoot := func() {
		req, err := http.NewRequestWithContext(ctx, o.Method, url, bytes.NewReader(o.Body))
		if err != nil {
			mu.Lock()
			rep.NetErrors++
			mu.Unlock()
			return
		}
		if len(o.Body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		start := time.Now() //depburst:allow determinism -- the load generator measures real request latency
		resp, err := client.Do(req)
		lat := time.Since(start) //depburst:allow determinism -- real latency is the measurement
		mu.Lock()
		defer mu.Unlock()
		rep.Requests++
		if err != nil {
			rep.NetErrors++
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		latencies = append(latencies, lat)
		switch {
		case resp.StatusCode >= 500:
			rep.Errors5xx++
		case resp.StatusCode >= 400:
			rep.Errors4xx++
		default:
			rep.OK++
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, o.Duration)
	defer cancel()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	start := time.Now() //depburst:allow determinism -- wall duration bounds the measured RPS
fire:
	for {
		select {
		case <-runCtx.Done():
			break fire
		case <-ticker.C:
			wg.Add(1)
			go func() {
				defer wg.Done()
				shoot()
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start) //depburst:allow determinism -- wall duration bounds the measured RPS

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / 1e6
	}
	rep.P50Ms = q(0.50)
	rep.P90Ms = q(0.90)
	rep.P99Ms = q(0.99)
	if n := len(latencies); n > 0 {
		rep.MaxMs = float64(latencies[n-1]) / 1e6
	}
	rep.WallMs = float64(wall) / 1e6
	if wall > 0 {
		rep.RPS = float64(rep.Requests) / wall.Seconds()
	}
	return &rep, nil
}

// WriteJSON writes the indented report.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
