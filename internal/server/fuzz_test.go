package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzPredictRequest hammers the strict request decoder — the only place the
// server parses untrusted bytes. Contracts under fuzzing:
//
//  1. The decoder never panics, whatever the input.
//  2. A request that decodes is normalised: re-encoding and re-decoding it
//     yields the same value (normalisation is idempotent), so equal work
//     always decodes to one request and gets one response.
//  3. Normalised targets are sorted, deduplicated and within bounds.
func FuzzPredictRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"bench":"pmd.scale","targets_mhz":[2000,4000]}`,
		`{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[4000,2000,2000],"models":["dep+burst","dep+burst"],"actual":true}`,
		`{"spec":{"Name":"x"},"targets_mhz":[4000]}`,
		`{"bench":"pmd.scale","spec":{"Name":"x"},"targets_mhz":[4000]}`,
		`{"bench":"pmd.scale","targets_mhz":[4000]} trailing`,
		`{"bench":"pmd.scale","targets_mhz":[4000],"unknown":1}`,
		`{"bench":"pmd.scale","targets_mhz":[99999999999999999999]}`,
		`{"bench":"pmd.scale","targets_mhz":[-5]}`,
		`{"bench":"` + strings.Repeat("a", 4096) + `","targets_mhz":[4000]}`,
		`{"bench":"?","targets_mhz":[4000],"models":[""]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodePredictRequest(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		// Normalisation invariants.
		if req.Bench == "" && req.Spec == nil {
			t.Fatal("decoded request with no workload")
		}
		if req.BaseMHz < 100 || req.BaseMHz > 20_000 {
			t.Fatalf("base_mhz %d out of bounds after decode", req.BaseMHz)
		}
		if len(req.TargetsMHz) == 0 || len(req.TargetsMHz) > maxTargets {
			t.Fatalf("targets length %d out of bounds", len(req.TargetsMHz))
		}
		for i, tgt := range req.TargetsMHz {
			if tgt < 100 || tgt > 20_000 {
				t.Fatalf("target %d out of bounds", tgt)
			}
			if i > 0 && req.TargetsMHz[i-1] >= tgt {
				t.Fatalf("targets not strictly ascending: %v", req.TargetsMHz)
			}
		}
		if len(req.Models) == 0 || len(req.Models) > maxModels {
			t.Fatalf("models length %d out of bounds", len(req.Models))
		}
		for _, m := range req.Models {
			if _, ok := modelFor(m); !ok {
				t.Fatalf("unknown model %q survived decode", m)
			}
		}
		// Idempotence: decoding the normalised form reproduces it exactly.
		first := encode(t, req)
		again, err := DecodePredictRequest(strings.NewReader(first), 1<<20)
		if err != nil {
			t.Fatalf("normalised request failed to re-decode: %v\nrequest: %s", err, first)
		}
		if second := encode(t, again); first != second {
			t.Fatalf("normalisation not idempotent:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}

// encode is the JSON of a decoded request.
func encode(t *testing.T, req *PredictRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFuzzSeedsAsTable runs the seed corpus as a plain test so `go test`
// (without -fuzz) still covers the decoder paths the seeds pin down.
func TestFuzzSeedsAsTable(t *testing.T) {
	valid := `{"bench":"pmd.scale","base_mhz":1000,"targets_mhz":[4000,2000,2000],"models":["dep+burst","dep+burst"]}`
	req, err := DecodePredictRequest(strings.NewReader(valid), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(req.TargetsMHz) != 2 || req.TargetsMHz[0] != 2000 || req.TargetsMHz[1] != 4000 {
		t.Fatalf("targets not sorted+deduped: %v", req.TargetsMHz)
	}
	if len(req.Models) != 1 {
		t.Fatalf("models not deduped: %v", req.Models)
	}
	again, err := DecodePredictRequest(strings.NewReader(encode(t, req)), 1<<20)
	if err != nil || encode(t, again) != encode(t, req) {
		t.Fatalf("normalised request does not re-decode to itself: %v", err)
	}
}
