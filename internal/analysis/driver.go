package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// LintConfig configures one driver invocation (`depburst lint`).
type LintConfig struct {
	// Dir is the module root to analyze.
	Dir string
	// Patterns are package patterns ("./...", "./internal/cpu", import
	// paths). Empty defaults to the whole module.
	Patterns []string
	// Analyzers selects a subset by name; empty runs the full suite.
	Analyzers []string
	// JSON emits the machine-readable report instead of text lines.
	JSON bool
	// FixHints appends each diagnostic's suggested fix in text mode (hints
	// are always present in JSON).
	FixHints bool
}

// jsonReport is the -json output shape. The keys are part of the tool's
// contract and pinned by the driver test.
type jsonReport struct {
	Version     int          `json:"version"`
	Count       int          `json:"count"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Lint runs the configured analyzers and writes the report to out. It
// returns the number of diagnostics; the CLI maps a nonzero count to exit
// status 1.
func Lint(cfg LintConfig, out io.Writer) (int, error) {
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := All()
	if len(cfg.Analyzers) > 0 {
		var err error
		analyzers, err = ByName(cfg.Analyzers)
		if err != nil {
			return 0, err
		}
	}
	diags, err := Run(cfg.Dir, patterns, analyzers)
	if err != nil {
		return 0, err
	}
	if cfg.JSON {
		rep := jsonReport{Version: 1, Count: len(diags), Diagnostics: diags}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []Diagnostic{}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return len(diags), err
		}
		return len(diags), nil
	}
	for _, d := range diags {
		if _, err := fmt.Fprintf(out, "%s: [%s] %s\n", d.Pos(), d.Analyzer, d.Message); err != nil {
			return len(diags), err
		}
		if cfg.FixHints && d.Hint != "" {
			if _, err := fmt.Fprintf(out, "\tfix: %s\n", d.Hint); err != nil {
				return len(diags), err
			}
		}
	}
	if len(diags) > 0 {
		if _, err := fmt.Fprintf(out, "%d issue(s) found\n", len(diags)); err != nil {
			return len(diags), err
		}
	}
	return len(diags), nil
}
