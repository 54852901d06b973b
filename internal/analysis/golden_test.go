package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// fixRoot is the fixture module every analyzer is exercised against.
const fixRoot = "testdata/src/fixmod"

// goldenCases pairs each analyzer with the fixture packages that exercise
// it. Each golden pins exactly which fixture lines fire — a new false
// positive or a lost detection both show up as a golden diff.
var goldenCases = []struct {
	analyzer *Analyzer
	patterns []string
}{
	{Determinism, []string{"./determinism"}},
	{HotPath, []string{"./hotpath"}},
	{CtxFlow, []string{"./ctxflow"}},
	{GoldenIO, []string{"./goldenio"}},
	{LockDisc, []string{"./lockdisc"}},
}

// renderDiags formats diagnostics the way the goldens store them.
func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s: [%s] %s\n", d.Pos(), d.Analyzer, d.Message)
		if d.Hint != "" {
			fmt.Fprintf(&b, "\thint: %s\n", d.Hint)
		}
	}
	return b.String()
}

func TestGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			diags, err := Run(fixRoot, tc.patterns, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(diags) == 0 {
				t.Fatalf("analyzer %s fired no diagnostics on its fixture", tc.analyzer.Name)
			}
			for _, d := range diags {
				if d.Analyzer != tc.analyzer.Name {
					t.Errorf("diagnostic from %q leaked into the %s run", d.Analyzer, tc.analyzer.Name)
				}
			}
			got := renderDiags(diags)
			golden := filepath.Join("testdata", "golden", tc.analyzer.Name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./internal/analysis -run TestGoldens -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s", tc.analyzer.Name, got, want)
			}
		})
	}
}

// TestCleanFixture is the suite-wide negative test: the clean fixture leans
// on every sanctioned idiom at once, and no analyzer may fire on it.
func TestCleanFixture(t *testing.T) {
	for _, a := range All() {
		diags, err := Run(fixRoot, []string{"./clean"}, []*Analyzer{a})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(diags) != 0 {
			t.Errorf("%s produced false positives on the clean fixture:\n%s", a.Name, renderDiags(diags))
		}
	}
}

// TestDeterministicOutput runs the full suite twice through independent
// loaders and requires byte-identical reports — the lint output is itself
// an export the repo's determinism invariant applies to.
func TestDeterministicOutput(t *testing.T) {
	run := func() string {
		diags, err := Run(fixRoot, []string{"./..."}, All())
		if err != nil {
			t.Fatal(err)
		}
		return renderDiags(diags)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
	if a == "" {
		t.Error("full-suite fixture run produced no diagnostics")
	}
}
