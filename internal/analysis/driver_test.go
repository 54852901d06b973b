package analysis

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestLintJSONSchema pins the -json contract: top-level keys, diagnostic
// keys, and the version number. CI and editor integrations parse this.
func TestLintJSONSchema(t *testing.T) {
	var buf strings.Builder
	count, err := Lint(LintConfig{
		Dir:       fixRoot,
		Patterns:  []string{"./goldenio"},
		Analyzers: []string{"goldenio"},
		JSON:      true,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("expected findings on the goldenio fixture")
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(buf.String()), &top); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	for _, key := range []string{"version", "count", "diagnostics"} {
		if _, ok := top[key]; !ok {
			t.Errorf("missing top-level key %q", key)
		}
	}
	if len(top) != 3 {
		t.Errorf("top-level keys changed: %d keys", len(top))
	}
	var version int
	if err := json.Unmarshal(top["version"], &version); err != nil || version != 1 {
		t.Errorf("version = %s, want 1", top["version"])
	}
	var n int
	if err := json.Unmarshal(top["count"], &n); err != nil || n != count {
		t.Errorf("count = %s, want %d", top["count"], count)
	}

	var diags []map[string]any
	if err := json.Unmarshal(top["diagnostics"], &diags); err != nil {
		t.Fatalf("diagnostics: %v", err)
	}
	if len(diags) != count {
		t.Fatalf("len(diagnostics) = %d, want %d", len(diags), count)
	}
	for _, key := range []string{"analyzer", "file", "line", "col", "message", "hint"} {
		if _, ok := diags[0][key]; !ok {
			t.Errorf("missing diagnostic key %q", key)
		}
	}
}

// TestLintJSONEmptyDiagnostics: a clean run must emit an empty array, not
// null, so `jq '.diagnostics[]'` always works.
func TestLintJSONEmptyDiagnostics(t *testing.T) {
	var buf strings.Builder
	count, err := Lint(LintConfig{Dir: fixRoot, Patterns: []string{"./clean"}, JSON: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("clean fixture produced %d findings", count)
	}
	if !strings.Contains(buf.String(), "\"diagnostics\": []") {
		t.Errorf("empty run must marshal diagnostics as []:\n%s", buf.String())
	}
}

// TestLintJSONByteDeterministic requires a byte-identical JSON report
// across repeated runs and across GOMAXPROCS settings — the lint report is
// an export, so the repo's determinism invariant applies to it.
func TestLintJSONByteDeterministic(t *testing.T) {
	render := func() string {
		var buf strings.Builder
		if _, err := Lint(LintConfig{Dir: fixRoot, JSON: true}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	prev := runtime.GOMAXPROCS(8)
	second := render()
	runtime.GOMAXPROCS(prev)
	if first != second {
		t.Errorf("JSON report differs across runs/-j settings:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestLintText covers the human format, with and without fix hints.
func TestLintText(t *testing.T) {
	var buf strings.Builder
	count, err := Lint(LintConfig{
		Dir:       fixRoot,
		Patterns:  []string{"./goldenio"},
		Analyzers: []string{"goldenio"},
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "goldenio/goldenio.go:") || !strings.Contains(out, "[goldenio]") {
		t.Errorf("text output missing position or analyzer tag:\n%s", out)
	}
	if !strings.Contains(out, "issue(s) found") {
		t.Errorf("text output missing summary line:\n%s", out)
	}
	if strings.Contains(out, "fix:") {
		t.Errorf("hints printed without FixHints:\n%s", out)
	}

	buf.Reset()
	if _, err := Lint(LintConfig{
		Dir:       fixRoot,
		Patterns:  []string{"./goldenio"},
		Analyzers: []string{"goldenio"},
		FixHints:  true,
	}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fix: collect the keys") {
		t.Errorf("FixHints output missing hint lines:\n%s", buf.String())
	}
	_ = count
}

// TestLintUnknownAnalyzer: selection errors surface instead of silently
// running nothing.
func TestLintUnknownAnalyzer(t *testing.T) {
	if _, err := Lint(LintConfig{Dir: fixRoot, Analyzers: []string{"nope"}}, &strings.Builder{}); err == nil {
		t.Fatal("expected an error for an unknown analyzer")
	}
	if _, err := ByName([]string{"determinism", "hotpath"}); err != nil {
		t.Fatalf("known analyzers must resolve: %v", err)
	}
}

// TestLintBadDir: a missing module root or an unmatched pattern is an
// error, not a clean run.
func TestLintBadDir(t *testing.T) {
	if _, err := Lint(LintConfig{Dir: "testdata/does-not-exist"}, &strings.Builder{}); err == nil {
		t.Fatal("expected an error for a missing module root")
	}
	if _, err := Lint(LintConfig{Dir: fixRoot, Patterns: []string{"./no-such/..."}}, &strings.Builder{}); err == nil {
		t.Fatal("expected an error for an unmatched pattern")
	}
}
