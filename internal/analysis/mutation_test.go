package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportSrc is a miniature of the repo's metrics export path: map keys
// collected and sorted before feeding the document. The mutation test
// removes the sort line and requires the determinism analyzer to catch it —
// the exact bug class the analyzer exists for.
const exportSrc = `package export

import "sort"

func Export(gauges map[string]float64) []string {
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
`

// writeModule materialises a one-package module in a temp dir.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module mut\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "export"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "export", "export.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMutationUnsortedExport proves the determinism analyzer guards the
// export idiom: the intact code is clean, and deleting only the sort call
// turns the map range into a finding.
func TestMutationUnsortedExport(t *testing.T) {
	clean := writeModule(t, exportSrc)
	diags, err := Run(clean, []string{"./..."}, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("sorted export should be clean, got: %+v", diags)
	}

	mutated := strings.Replace(exportSrc, "\tsort.Strings(names)\n", "", 1)
	if mutated == exportSrc {
		t.Fatal("mutation did not apply")
	}
	mutated = strings.Replace(mutated, "import \"sort\"\n", "", 1) // keep it compiling
	dir := writeModule(t, mutated)
	diags, err = Run(dir, []string{"./..."}, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("unsorted export must produce exactly one finding, got %d: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "determinism" || !strings.Contains(d.Message, "never sorted") {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}
