package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// TestLoadModel covers serve's -model handling: a valid file loads, a file
// that does not decode (garbage, or a model written under an older file
// schema) degrades to no surrogate tier with the reason on stderr, and a
// file that cannot be read is an error.
func TestLoadModel(t *testing.T) {
	r := experiments.NewRunnerWorkers(1)
	dir := t.TempDir()

	var samples []surrogate.Sample
	spec := dacapo.PMD()
	for _, f := range []units.Freq{1000, 2000, 4000} {
		cfg := r.Base
		cfg.Freq = f
		spec.Configure(&cfg)
		samples = append(samples, surrogate.Sample{Config: cfg, Spec: spec, Time: units.Time(1e9 + 4e12/int64(f))})
	}
	want := surrogate.Train(samples)
	valid := filepath.Join(dir, "model.dbsg")
	if err := want.WriteFile(valid); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	got, err := loadModel(r, valid, false, &stderr)
	if err != nil || got == nil {
		t.Fatalf("valid model file: model %v, err %v", got, err)
	}
	if got.Summarize() != want.Summarize() || stderr.Len() != 0 {
		t.Errorf("valid model file loaded as %+v (want %+v), stderr %q", got.Summarize(), want.Summarize(), stderr.String())
	}

	garbage := filepath.Join(dir, "garbage.dbsg")
	if err := os.WriteFile(garbage, []byte("not a model, just bytes on disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	got, err = loadModel(r, garbage, false, &stderr)
	if err != nil || got != nil {
		t.Fatalf("corrupt model file: model %v, err %v; want no tier and no error", got, err)
	}
	if !strings.Contains(stderr.String(), "serving without the surrogate tier: ") {
		t.Errorf("corrupt model file logged %q", stderr.String())
	}

	// A model written under the previous file schema, whose group ids no
	// longer match any query, is refused the same way.
	legacy := filepath.Join("testdata", "model-schema1.dbsg")
	stderr.Reset()
	got, err = loadModel(r, legacy, false, &stderr)
	if err != nil || got != nil {
		t.Fatalf("old-schema model file: model %v, err %v; want no tier and no error", got, err)
	}
	if want := "serving without the surrogate tier: " + legacy + ": surrogate: model schema"; !strings.Contains(stderr.String(), want) {
		t.Errorf("old-schema model file logged %q, want it to contain %q", stderr.String(), want)
	}

	if _, err := loadModel(r, filepath.Join(dir, "absent.dbsg"), false, &stderr); err == nil {
		t.Error("unreadable model file accepted")
	}
}
