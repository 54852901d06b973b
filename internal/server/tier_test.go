package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"depburst/internal/experiments"
	"depburst/internal/sampling"
	"depburst/internal/simcache"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// trainedSurrogate builds a training corpus by prewarming the test suite at
// the given frequencies through a disk-cached runner, then scans and trains
// a model from it. The corpus runner is returned so tests can compare
// surrogate answers against the truth it simulated.
func trainedSurrogate(t testing.TB, freqs ...units.Freq) (*surrogate.Model, *experiments.Runner) {
	t.Helper()
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunnerWorkers(2)
	r.SetDiskCache(st)
	r.Prewarm(testSuite(t), freqs...)
	samples, err := surrogate.Scan(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("corpus scan found no training samples")
	}
	return surrogate.Train(samples), r
}

// TestSurrogateTierServes is the tier-0 contract: a request the trained
// model is confident about is answered without scheduling a single
// simulation, annotated with its tier and trust, and lands within the
// model's own error estimate of the simulated truth.
func TestSurrogateTierServes(t *testing.T) {
	model, corpus := trainedSurrogate(t, 1000, 2000, 3000, 4000)
	s, r := newTestServer(t, func(c *Config) { c.Surrogate = model })

	w := post(t, s, "/v1/predict", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,3000]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if sims := r.Simulations(); sims != 0 {
		t.Fatalf("surrogate tier ran %d simulations, want 0", sims)
	}
	var resp PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tier != TierSurrogate {
		t.Fatalf("tier = %q, want %q", resp.Tier, TierSurrogate)
	}
	if resp.Surrogate == nil || resp.Surrogate.Confidence < surrogate.DefaultMinConfidence ||
		resp.Surrogate.ErrEstimate <= 0 {
		t.Fatalf("surrogate annotation missing or weak: %+v", resp.Surrogate)
	}
	if len(resp.Predictions) != 2 {
		t.Fatalf("predictions = %d, want 2", len(resp.Predictions))
	}
	// The answer agrees with the simulated truth to within the model's own
	// error estimate (with slack for the estimate being a mean, not a max).
	spec := testSuite(t)[0]
	for _, p := range resp.Predictions {
		truth := corpus.Truth(spec, units.Freq(p.TargetMHz))
		re := relDiff(float64(p.PredictedPS), float64(truth.Time))
		if re > 4*resp.Surrogate.ErrEstimate {
			t.Errorf("target %d MHz: rel error %.4f exceeds 4x estimate %.4f",
				p.TargetMHz, re, resp.Surrogate.ErrEstimate)
		}
	}
	if n := s.cfg.Metrics.TierCount(TierSurrogate); n != 1 {
		t.Errorf("surrogate tier count = %d, want 1", n)
	}
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d
}

// TestSurrogateFallbackByteIdentical: when the confidence gate refuses the
// fast path, the fallback response must be byte-identical to what a
// surrogate-less server produces — clients cannot tell the tiers apart
// except by the additive annotation's presence. A corpus of two
// frequencies per group cannot cross-validate extrapolation, so it keeps
// the default 5% error (confidence 0.714): the in-band target clears the
// gate, the out-of-band one does not, and the whole request falls through.
func TestSurrogateFallbackByteIdentical(t *testing.T) {
	model, _ := trainedSurrogate(t, 1000, 2000)
	gated, gr := newTestServer(t, func(c *Config) { c.Surrogate = model })
	plain, _ := newTestServer(t, nil)

	body := `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,3000]}`
	wg := post(t, gated, "/v1/predict", body)
	wp := post(t, plain, "/v1/predict", body)
	if wg.Code != http.StatusOK || wp.Code != http.StatusOK {
		t.Fatalf("status %d / %d", wg.Code, wp.Code)
	}
	if !bytes.Equal(wg.Body.Bytes(), wp.Body.Bytes()) {
		t.Fatalf("fallback differs from surrogate-less response:\ngated: %s\nplain: %s", wg.Body, wp.Body)
	}
	if bytes.Contains(wg.Body.Bytes(), []byte(`"tier"`)) {
		t.Fatal("fallback response leaked a tier annotation")
	}
	if sims := gr.Simulations(); sims == 0 {
		t.Fatal("gated server answered without simulating")
	}
	if n := gated.cfg.Metrics.TierCount(TierFull); n != 1 {
		t.Errorf("full tier count = %d, want 1", n)
	}
	if n := gated.cfg.Metrics.TierCount(TierSurrogate); n != 0 {
		t.Errorf("surrogate tier count = %d, want 0", n)
	}
}

// TestSurrogateIneligibleRequests: actual, non-default-model and sampled
// requests bypass the fast path even when the model is confident, and their
// responses are byte-identical to a surrogate-less server's.
func TestSurrogateIneligibleRequests(t *testing.T) {
	model, _ := trainedSurrogate(t, 1000, 2000, 3000, 4000)
	cases := []struct {
		name string
		body string
	}{
		{"actual", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"actual":true}`},
		{"other model", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"models":["mcrit"]}`},
		{"two models", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"models":["dep+burst","dep"]}`},
		{"sampled", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"sampling":{"enabled":true}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sur, sr := newTestServer(t, func(c *Config) { c.Surrogate = model })
			plain, _ := newTestServer(t, nil)
			ws := post(t, sur, "/v1/predict", tc.body)
			wp := post(t, plain, "/v1/predict", tc.body)
			if ws.Code != http.StatusOK || wp.Code != http.StatusOK {
				t.Fatalf("status %d / %d: %s", ws.Code, wp.Code, ws.Body)
			}
			if !bytes.Equal(ws.Body.Bytes(), wp.Body.Bytes()) {
				t.Fatalf("ineligible request response differs:\nsur:   %s\nplain: %s", ws.Body, wp.Body)
			}
			if sims := sr.Simulations(); sims == 0 {
				t.Fatal("ineligible request did not simulate")
			}
			wantTier := TierFull
			if strings.Contains(tc.body, "sampling") {
				wantTier = TierSampled
			}
			if n := sur.cfg.Metrics.TierCount(wantTier); n != 1 {
				t.Errorf("%s tier count = %d, want 1", wantTier, n)
			}
		})
	}
}

// TestSurrogateFeedbackFlipsTier is the online-learning loop: a server
// whose surrogate starts empty answers its first request by simulating,
// feeds those truths back, and then serves the identical frequency band
// from the fast path without a single new simulation — agreeing with the
// truths it just absorbed.
func TestSurrogateFeedbackFlipsTier(t *testing.T) {
	s, r := newTestServer(t, func(c *Config) { c.Surrogate = surrogate.NewModel() })

	first := post(t, s, "/v1/predict",
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000],"actual":true}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first status %d: %s", first.Code, first.Body)
	}
	if bytes.Contains(first.Body.Bytes(), []byte(`"tier"`)) {
		t.Fatal("empty surrogate answered the first request")
	}
	simsAfterFirst := r.Simulations()
	if simsAfterFirst == 0 {
		t.Fatal("first request did not simulate")
	}
	var truth PredictResponse
	if err := json.Unmarshal(first.Body.Bytes(), &truth); err != nil {
		t.Fatal(err)
	}

	second := post(t, s, "/v1/predict",
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000]}`)
	if second.Code != http.StatusOK {
		t.Fatalf("second status %d: %s", second.Code, second.Body)
	}
	if sims := r.Simulations(); sims != simsAfterFirst {
		t.Fatalf("second request simulated (%d -> %d sims)", simsAfterFirst, sims)
	}
	var resp PredictResponse
	if err := json.Unmarshal(second.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tier != TierSurrogate {
		t.Fatalf("tier = %q after feedback, want %q", resp.Tier, TierSurrogate)
	}
	// The group law is a least-squares fit over the three observed truths,
	// so it reproduces them closely but not exactly.
	if re := relDiff(float64(resp.BaseTimePS), float64(truth.BaseTimePS)); re > 0.05 {
		t.Errorf("surrogate base %d vs absorbed truth %d (rel %.4f)", resp.BaseTimePS, truth.BaseTimePS, re)
	}
	for i, p := range resp.Predictions {
		if re := relDiff(float64(p.PredictedPS), float64(truth.Predictions[i].ActualPS)); re > 0.05 {
			t.Errorf("target %d MHz: surrogate %.0f vs absorbed truth %d (rel %.4f)",
				p.TargetMHz, float64(p.PredictedPS), truth.Predictions[i].ActualPS, re)
		}
	}
}

// TestSurrogateSampledRunnerNeverTrains: on a server whose Runner samples
// every simulation, no truth reaches the model, so a repeated request is
// never answered from sampled evidence.
func TestSurrogateSampledRunnerNeverTrains(t *testing.T) {
	model := surrogate.NewModel()
	s, _ := newTestServer(t, func(c *Config) {
		c.Runner.SetSampling(sampling.DefaultPolicy())
		c.Surrogate = model
	})
	if w := post(t, s, "/v1/predict", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000],"actual":true}`); w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if sum := model.Summarize(); sum.Points != 0 {
		t.Fatalf("sampled truths trained the model: %+v", sum)
	}
	w := post(t, s, "/v1/predict", `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000]}`)
	if w.Code != http.StatusOK || bytes.Contains(w.Body.Bytes(), []byte(`"tier"`)) {
		t.Fatalf("repeat request answered from sampled evidence: %d %s", w.Code, w.Body)
	}
}

// TestSurrogateConcurrentTiers: concurrent identical eligible requests are
// all absorbed by the fast path (zero simulations, identical bodies), while
// concurrent identical ineligible requests still coalesce into one run in
// the Runner memo — the tiering does not bypass the singleflight.
func TestSurrogateConcurrentTiers(t *testing.T) {
	model, _ := trainedSurrogate(t, 1000, 2000, 3000, 4000)
	s, r := newTestServer(t, func(c *Config) {
		c.Surrogate = model
		c.Workers = 4
		c.MaxQueue = 200
	})
	run := func(body string) [][]byte {
		const n = 50
		out := make([][]byte, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				w := post(t, s, "/v1/predict", body)
				if w.Code != http.StatusOK {
					t.Errorf("status %d: %s", w.Code, w.Body)
				}
				out[i] = w.Body.Bytes()
			}(i)
		}
		wg.Wait()
		return out
	}

	fast := run(`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[3000]}`)
	for i, b := range fast {
		if !bytes.Equal(b, fast[0]) {
			t.Fatalf("surrogate response %d differs", i)
		}
	}
	if sims := r.Simulations(); sims != 0 {
		t.Fatalf("eligible burst ran %d simulations, want 0", sims)
	}
	if n := s.cfg.Metrics.TierCount(TierSurrogate); n != 50 {
		t.Errorf("surrogate tier count = %d, want 50", n)
	}

	slow := run(`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[3000],"models":["mcrit"]}`)
	for i, b := range slow {
		if !bytes.Equal(b, slow[0]) {
			t.Fatalf("fallback response %d differs", i)
		}
	}
	if sims := r.Simulations(); sims != 1 {
		t.Fatalf("ineligible burst ran %d simulations, want exactly 1", sims)
	}
	if r.Coalesced() == 0 {
		t.Error("ineligible burst did not coalesce")
	}
}

// TestTierMetricsExposed: after traffic through every tier, the metrics
// endpoint reports the per-tier split in both formats.
func TestTierMetricsExposed(t *testing.T) {
	model, _ := trainedSurrogate(t, 1000, 2000, 3000, 4000)
	s, _ := newTestServer(t, func(c *Config) { c.Surrogate = model })
	for _, body := range []string{
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000]}`,
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"models":["mcrit"]}`,
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000],"sampling":{"enabled":true}}`,
	} {
		if w := post(t, s, "/v1/predict", body); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}

	w := get(t, s, "/v1/metrics")
	var doc struct {
		Tiers []struct {
			Tier  string `json:"tier"`
			Count uint64 `json:"count"`
		} `json:"tiers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]uint64{}
	for _, td := range doc.Tiers {
		seen[td.Tier] = td.Count
	}
	for _, tier := range []string{TierSurrogate, TierSampled, TierFull} {
		if seen[tier] != 1 {
			t.Errorf("tier %q count = %d, want 1 (doc: %s)", tier, seen[tier], w.Body)
		}
	}

	p := get(t, s, "/v1/metrics?format=prometheus")
	for _, want := range []string{
		`depburst_predict_tier_total{tier="surrogate"} 1`,
		`depburst_predict_tier_total{tier="full"} 1`,
		`depburst_predict_tier_total{tier="sampled"} 1`,
	} {
		if !strings.Contains(p.Body.String(), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, p.Body)
		}
	}
}

// BenchmarkTier0Handler measures the whole in-process cost of one tier-0
// answer: an httptest POST of a two-target dep+burst request through the
// handler (decode, group lookup, estimates, encode) against a surrogate
// trained on the test suite.
func BenchmarkTier0Handler(b *testing.B) {
	model, _ := trainedSurrogate(b, 1000, 2000, 3000, 4000)
	s, r := newTestServer(b, func(c *Config) { c.Surrogate = model })
	const body = `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,3000]}`
	if w := post(b, s, "/v1/predict", body); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"tier": "surrogate"`) {
		b.Fatalf("not a tier-0 answer: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := post(b, s, "/v1/predict", body); w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	b.StopTimer()
	if sims := r.Simulations(); sims != 0 {
		b.Fatalf("tier 0 ran %d simulations", sims)
	}
}
