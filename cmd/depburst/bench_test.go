package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"depburst/internal/server"
)

// TestBenchAndLoadtestShareFile runs `bench -o F` and `loadtest -o F` in
// both orders, and bench twice after loadtest: the file must end up with
// the bench record and the load report intact.
func TestBenchAndLoadtestShareFile(t *testing.T) {
	rep := &server.LoadReport{Requests: 400, OK: 398, Errors4xx: 2, P50Ms: 1.5, P99Ms: 9.25, RPS: 40}
	doc := benchDoc{Schema: "depburst-bench/3", Workers: 2, WallSeconds: 12.5, OutputBytes: 4096}
	bench := func(t *testing.T, path string) {
		t.Helper()
		if err := writeBenchDoc(path, doc); err != nil {
			t.Fatal(err)
		}
	}
	loadtest := func(t *testing.T, path string) {
		t.Helper()
		if err := mergeLoadReport(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	for name, steps := range map[string][]func(*testing.T, string){
		"bench-then-loadtest":       {bench, loadtest},
		"loadtest-then-bench":       {loadtest, bench},
		"loadtest-then-bench-twice": {loadtest, bench, bench},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_suite.json")
			for _, step := range steps {
				step(t, path)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				benchDoc
				Loadtest *server.LoadReport `json:"loadtest"`
			}
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Loadtest == nil || *got.Loadtest != *rep {
				t.Errorf("load report lost or changed: %+v", got.Loadtest)
			}
			got.benchDoc.Loadtest = nil
			if !reflect.DeepEqual(got.benchDoc, doc) {
				t.Errorf("bench record changed:\ngot  %+v\nwant %+v", got.benchDoc, doc)
			}
		})
	}
}

// TestBenchWithoutLoadtest checks a fresh file carries no loadtest member.
func TestBenchWithoutLoadtest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_suite.json")
	if err := writeBenchDoc(path, benchDoc{Schema: "depburst-bench/3"}); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	raw, _ := os.ReadFile(path)
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["loadtest"]; ok {
		t.Error("fresh bench file has a loadtest member")
	}
}
