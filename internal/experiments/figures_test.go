package experiments

import (
	"os"
	"strings"
	"testing"

	"depburst/internal/report"
)

// referenceOutput is the recorded `depburst all` rendering that
// EXPERIMENTS.md quotes.
const referenceOutput = "../../experiments_output.txt"

// referenceTables splits the recorded output into its tables, keyed by
// title. A table runs from its "== title ==" line through the blank line
// that ends it, exactly as report.Table renders it.
func referenceTables(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(referenceOutput)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	for _, block := range strings.SplitAfter(string(raw), "\n\n") {
		first, _, _ := strings.Cut(block, "\n")
		if title, ok := strings.CutPrefix(first, "== "); ok {
			tables[strings.TrimSuffix(title, " ==")] = block
		}
	}
	return tables
}

// TestFigures re-renders the truth-matrix tables and figures through one
// Runner and byte-compares each with its section of the recorded output, so
// the numbers EXPERIMENTS.md quotes are checked rather than only quoted.
func TestFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	ref := referenceTables(t)
	r := NewRunner()
	for _, tbl := range []*report.Table{r.Table1(), r.Table2(), r.Fig1(), r.Fig3a(), r.Fig3b(), r.Fig4()} {
		want, ok := ref[tbl.Title]
		if !ok {
			t.Errorf("%q has no section in %s", tbl.Title, referenceOutput)
			continue
		}
		if got := tbl.String(); got != want {
			t.Errorf("%q differs from %s:\n--- got\n%s--- want\n%s", tbl.Title, referenceOutput, got, want)
		}
	}
}
