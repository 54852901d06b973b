package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runMain, as the test binary's first argument, makes the binary run
// depburst's main on the arguments after it instead of the tests, so a
// test can observe the exit status of a whole command line.
const runMain = "-depburst.main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// depburst runs one command line in a child process and returns its exit
// status, standard output and standard error. A command that would do a
// command's full work instead of rejecting it is killed after a minute.
func depburst(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{runMain}, args...)...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestLeftoverArgumentExits2 gives a command without flags, commands with
// flags, and all a leftover argument: each must exit 2 naming it, before
// doing any work.
func TestLeftoverArgumentExits2(t *testing.T) {
	suiteFile := filepath.Join(t.TempDir(), "suite.json")
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"table2", "fig6", "bogus"}, "fig6"},
		{[]string{"fig7", "-step", "2000", "fig1"}, "fig1"},
		{[]string{"suite", "-o", suiteFile, "extra"}, "extra"},
		{[]string{"all", "-step", "2000", "fig1"}, "fig1"},
	} {
		t.Run(tc.args[0], func(t *testing.T) {
			code, stdout, stderr := depburst(t, tc.args...)
			want := fmt.Sprintf("depburst %s: unexpected argument %q", tc.args[0], tc.stray)
			if code != 2 || !strings.Contains(stderr, want) {
				t.Errorf("exit %d, stderr %q; want exit 2 and %q", code, stderr, want)
			}
			if stdout != "" {
				t.Errorf("printed %d bytes before rejecting the argument", len(stdout))
			}
		})
	}
	if _, err := os.Stat(suiteFile); !os.IsNotExist(err) {
		t.Errorf("suite wrote %s before rejecting its argument (stat: %v)", suiteFile, err)
	}
}

// TestLintTakesPatterns: lint's positional arguments are package patterns,
// so a pattern runs the analyzers over that package.
func TestLintTakesPatterns(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "fixmod")
	code, stdout, stderr := depburst(t, "lint", "-analyzers", "determinism", "-C", fixture, "./determinism")
	if code != 1 || !strings.Contains(stdout, "[determinism]") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 with determinism findings", code, stdout, stderr)
	}
}

// TestUnknownCommandExits2: a command that does not exist, including the
// retired bench, prints the usage and exits 2.
func TestUnknownCommandExits2(t *testing.T) {
	for _, cmd := range []string{"bench", "nosuch"} {
		code, _, stderr := depburst(t, cmd)
		if code != 2 || !strings.Contains(stderr, "usage: depburst") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 with usage", cmd, code, stderr)
		}
	}
}
