package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"depburst/internal/experiments"
)

// TestSurrogateCheckFailureRemovesCorpus forces the speed gate to fail: the
// check must report failure, still write its report, and remove the cold
// corpus it built under the temporary directory.
func TestSurrogateCheckFailureRemovesCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Figure 1 corpus cold")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	report := filepath.Join(t.TempDir(), "surrogatecheck.json")
	if code := surrogateCheck(experiments.NewRunner(), []string{"-min-speedup", "1e12", "-o", report}); code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "depburst-surrogatecheck-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("a failed check left %v behind", left)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc surrogateCheckDoc
	if err := json.Unmarshal(raw, &doc); err != nil || doc.Pass || doc.Samples == 0 {
		t.Fatalf("report %+v (err %v), want a failing report over the corpus", doc, err)
	}
}
