package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance describes where and how a record was taken. A record whose
// GOMAXPROCS differs from the CPU count is flagged: its parallel timings
// do not describe the machine it ran on.
func provenance(e *env, workload string, trace int) map[string]any {
	p := map[string]any{
		"workload":   workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    e.nproc,
		"go":         runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(e.root),
		"source":     sourceDigest(e.root),
	}
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		p["warning"] = "GOMAXPROCS differs from nproc"
	}
	return p
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout exported without .git reports "none" (the source digest
// still identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source file and go.mod under root (hidden
// directories excluded), in path order: two records with the same digest
// measured the same code.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
