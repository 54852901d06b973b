package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// sampledBody is predictBody with the sampled-simulation opt-in.
const sampledBody = `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[2000,4000],"models":["dep+burst"],"actual":true,"sampling":{"enabled":true}}`

func decodeResponse(t *testing.T, body []byte) PredictResponse {
	t.Helper()
	var resp PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response does not decode: %v\n%s", err, body)
	}
	return resp
}

// TestPredictSampled is the sampled-mode e2e path: an opted-in request
// succeeds, is annotated with the simulations' own accuracy report, and
// its actuals stay within the reported error bound of the full-detail
// actuals computed by the same server.
func TestPredictSampled(t *testing.T) {
	s, _ := newTestServer(t, nil)

	full := post(t, s, "/v1/predict", predictBody)
	if full.Code != http.StatusOK {
		t.Fatalf("full-detail status %d: %s", full.Code, full.Body)
	}
	fullResp := decodeResponse(t, full.Body.Bytes())
	if fullResp.Sampling != nil {
		t.Error("full-detail response carries a sampling annotation")
	}

	w := post(t, s, "/v1/predict", sampledBody)
	if w.Code != http.StatusOK {
		t.Fatalf("sampled status %d: %s", w.Code, w.Body)
	}
	resp := decodeResponse(t, w.Body.Bytes())
	if resp.Sampling == nil {
		t.Fatal("sampled response carries no sampling annotation")
	}
	if resp.Sampling.ErrorBound <= 0 || resp.Sampling.FastFrac <= 0 {
		t.Fatalf("degenerate sampling annotation: %+v", resp.Sampling)
	}
	check := func(name string, sampled, fullPS int64) {
		diff := float64(sampled-fullPS) / float64(fullPS)
		if diff < 0 {
			diff = -diff
		}
		if diff > resp.Sampling.ErrorBound {
			t.Errorf("%s: sampled %d vs full %d (%.3f) exceeds bound %.3f",
				name, sampled, fullPS, diff, resp.Sampling.ErrorBound)
		}
	}
	check("base_time_ps", resp.BaseTimePS, fullResp.BaseTimePS)
	for i, p := range resp.Predictions {
		if p.Model != "dep+burst" {
			continue
		}
		for _, fp := range fullResp.Predictions {
			if fp.Model == p.Model && fp.TargetMHz == p.TargetMHz {
				check(fmt.Sprintf("predictions[%d].actual_ps", i), p.ActualPS, fp.ActualPS)
			}
		}
	}

	// Identical sampled requests must be byte-identical (same memoised
	// results, same encoding).
	again := post(t, s, "/v1/predict", sampledBody)
	if again.Body.String() != w.Body.String() {
		t.Error("repeated sampled request is not byte-identical")
	}
}

// TestPredictSamplingValidation covers the strict-decode and normalisation
// rules of the sampling field.
func TestPredictSamplingValidation(t *testing.T) {
	s, _ := newTestServer(t, nil)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"unknown field inside sampling", `{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"bogus":1}}`, http.StatusBadRequest},
		{"tolerance out of range", `{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"tolerance":0.9}}`, http.StatusBadRequest},
		{"negative k", `{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"k":-1}}`, http.StatusBadRequest},
		{"check interval out of range", `{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"check_interval":100000}}`, http.StatusBadRequest},
		{"safety factor out of range", `{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"safety_factor":99}}`, http.StatusBadRequest},
	} {
		w := post(t, s, "/v1/predict", tc.body)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.status, w.Body)
		}
	}

	// An explicitly disabled policy normalises to "no sampling": same
	// coalescing key, same bytes, no annotation.
	plain := post(t, s, "/v1/predict", predictBody)
	disabled := post(t, s, "/v1/predict",
		strings.Replace(predictBody, `"actual":true`, `"actual":true,"sampling":{"enabled":false,"k":99}`, 1))
	if disabled.Code != http.StatusOK {
		t.Fatalf("disabled-sampling status %d: %s", disabled.Code, disabled.Body)
	}
	if plain.Body.String() != disabled.Body.String() {
		t.Error("explicitly disabled sampling diverges from absent sampling")
	}
}

// TestPredictManySamplingPolicies: the policy is part of every memo key,
// so any number of distinct policies is served (nine here), and a
// repeated policy is answered byte-identically.
func TestPredictManySamplingPolicies(t *testing.T) {
	s, _ := newTestServer(t, nil)
	body := func(k int) string {
		return fmt.Sprintf(`{"bench":"pmd.scale","targets_mhz":[2000],"sampling":{"enabled":true,"k":%d}}`, k)
	}
	var first string
	for k := 1; k <= 9; k++ {
		w := post(t, s, "/v1/predict", body(k))
		if w.Code != http.StatusOK {
			t.Fatalf("policy %d: status %d: %s", k, w.Code, w.Body)
		}
		if k == 1 {
			first = w.Body.String()
		}
	}
	if w := post(t, s, "/v1/predict", body(1)); w.Body.String() != first {
		t.Errorf("repeated policy is not byte-identical:\n%s\nfirst:\n%s", w.Body, first)
	}
}
