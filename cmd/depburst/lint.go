package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"depburst/internal/analysis"
)

// cmdLint runs the repo's static-analysis suite (internal/analysis) over the
// module. Exit status: 0 clean, 1 diagnostics found or the analysis itself
// failed, 2 usage error.
func cmdLint(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	jsonFlag := fs.Bool("json", false, "emit the machine-readable report ({version, count, diagnostics})")
	fixHints := fs.Bool("fix-hints", false, "print a suggested fix under each diagnostic")
	only := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	dir := fs.String("C", ".", "module root to analyze")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: depburst lint [-json] [-fix-hints] [-analyzers LIST] [-C DIR] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(args)

	cfg := analysis.LintConfig{
		Dir:      *dir,
		Patterns: fs.Args(),
		JSON:     *jsonFlag || jsonOut,
		FixHints: *fixHints,
	}
	if *only != "" {
		cfg.Analyzers = strings.Split(*only, ",")
		// An unknown name is a usage error, reported before anything loads.
		if _, err := analysis.ByName(cfg.Analyzers); err != nil {
			fmt.Fprintf(os.Stderr, "depburst lint: %v\n", err)
			os.Exit(2)
		}
	}
	count, err := analysis.Lint(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "depburst lint: %v\n", err)
		os.Exit(1)
	}
	if count > 0 {
		os.Exit(1)
	}
}
