package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// profiled runs fn under the profiles the global flags ask for: a CPU
// profile of fn into cpuPath, and a heap profile written into memPath when
// fn returns (an empty path skips that profile). A command that exits
// the process early writes neither.
func profiled(cpuPath, memPath string, fn func()) error {
	stop := func() error { return nil }
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stop = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	fn()
	if err := stop(); err != nil || memPath == "" {
		return err
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC() // settle the statistics the profile reports
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
