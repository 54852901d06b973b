package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"depburst/internal/experiments"
)

// TestProfilesWritten runs a short command through dispatch under both
// profiles: each file must be a non-empty gzip-compressed pprof profile.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	r := experiments.NewRunnerWorkers(1)
	if err := profiled(cpu, mem, func() { dispatch(r, "table2", nil) }); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte{0x1f, 0x8b}) {
			t.Errorf("%s is not a gzip-compressed profile (%d bytes)", filepath.Base(path), len(raw))
		}
	}
}

// TestProfilesOptional: with no paths, profiled only runs the command.
func TestProfilesOptional(t *testing.T) {
	ran := false
	if err := profiled("", "", func() { ran = true }); err != nil || !ran {
		t.Fatalf("ran %v, err %v", ran, err)
	}
}
